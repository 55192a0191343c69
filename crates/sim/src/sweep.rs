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
//! Values are stored untagged (`SlotCols`): a row of `u64` payload
//! bits per register or memory cell plus one float-mask word per row.
//! A row whose live slots share a type — every row of a Monte Carlo
//! sweep — runs a kernel as one dense loop over `&[u64]` with the tags
//! as loop constants; a row typed differently by seed takes the same
//! loop reading its mask per slot. A memory access whose address is the
//! same in every slot is one row copy per lane.
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
        self.dense_rows += other.dense_rows;
        self.mixed_rows += other.mixed_rows;
        self.uniform_accesses += other.uniform_accesses;
        self.scattered_accesses += other.scattered_accesses;
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

/// Typed slot columns — the cohort's one data representation, for
/// registers, local memory and global memory alike. A *row* is one
/// register (or memory cell) across every slot: `ns` payload words —
/// an `i64` reinterpreted, or `f64::to_bits`, so NaN payloads and `-0.0`
/// round-trip — plus one float-mask word (bit `s` set ⇔ slot `s` holds
/// an `f64`; [`COHORT_SLOTS`] is 64, so one word always suffices).
/// [`Value`] exists only at the edges: launch inputs, immediates, fault
/// messages and the final memory image.
///
/// A row is shared by every sub-cohort, each owning a disjoint slot
/// set: every write commits payload *and* mask bits under the writer's
/// own slot mask only.
#[derive(Clone, Debug)]
struct SlotCols {
    /// Slots per row (the cohort width).
    ns: usize,
    /// Payload bits, `[row * ns + slot]`.
    bits: Vec<u64>,
    /// Float masks, `[row]`.
    floats: Vec<u64>,
}

/// One row of a [`SlotCols`] (or an immediate broadcast to row shape).
#[derive(Clone, Copy)]
struct RowRef<'a> {
    bits: &'a [u64],
    floats: u64,
}

/// An operand resolved against one lane's frame: an immediate, or the
/// row of a register in the lane's arena.
#[derive(Clone, Copy)]
enum Row {
    Imm(Value),
    At(usize),
}

/// Resolves an operand against the frame at `base`.
#[inline]
fn resolve(base: usize, op: Operand) -> Row {
    match op {
        Operand::Imm(v) => Row::Imm(v),
        Operand::Reg(r) => Row::At(base + r.index()),
    }
}

/// A value as `(payload bits, is-float)`. Bit-exact: floats go through
/// `to_bits`, never `as`.
#[inline(always)]
fn encode(v: Value) -> (u64, bool) {
    match v {
        Value::I64(x) => (x as u64, false),
        Value::F64(x) => (x.to_bits(), true),
    }
}

/// The inverse of [`encode`].
#[inline(always)]
fn decode(bits: u64, float: bool) -> Value {
    if float {
        Value::F64(f64::from_bits(bits))
    } else {
        Value::I64(bits as i64)
    }
}

/// `live` as one run `lo..hi`, when its set bits are contiguous — a
/// whole cohort, or a sub-cohort of neighbouring seeds. Masked row
/// operations take such a mask as one dense slice operation; any other
/// mask is walked slot by slot, so a fragmented sub-cohort pays for the
/// slots it owns and not per fragment.
#[inline(always)]
fn single_run(live: u64) -> Option<(usize, usize)> {
    let mut runs = mask_runs(live);
    match (runs.next(), runs.next()) {
        (Some(run), None) => Some(run),
        _ => None,
    }
}

/// `dst[s] = src[s]` for every live slot.
#[inline(always)]
fn store_live(dst: &mut [u64], src: &[u64], live: u64) {
    if let Some((lo, hi)) = single_run(live) {
        dst[lo..hi].copy_from_slice(&src[lo..hi]);
    } else {
        for s in lanes(live) {
            dst[s] = src[s];
        }
    }
}

impl SlotCols {
    /// `rows` rows of `ns` slots, every cell [`Value::default`] (integer
    /// zero: zero bits, clear mask).
    fn new(rows: usize, ns: usize) -> SlotCols {
        SlotCols { ns, bits: vec![0; rows * ns], floats: vec![0; rows] }
    }

    /// Grows to at least `rows` rows; never shrinks.
    fn grow(&mut self, rows: usize) {
        if self.floats.len() < rows {
            self.bits.resize(rows * self.ns, 0);
            self.floats.resize(rows, 0);
        }
    }

    #[inline]
    fn row(&self, r: usize) -> RowRef<'_> {
        RowRef { bits: &self.bits[r * self.ns..(r + 1) * self.ns], floats: self.floats[r] }
    }

    #[inline]
    fn get(&self, r: usize, s: usize) -> Value {
        decode(self.bits[r * self.ns + s], self.floats[r] >> s & 1 != 0)
    }

    #[inline]
    fn set(&mut self, r: usize, s: usize, v: Value) {
        let (bits, float) = encode(v);
        self.bits[r * self.ns + s] = bits;
        self.floats[r] = self.floats[r] & !(1 << s) | u64::from(float) << s;
    }

    /// Reads a resolved operand for one slot.
    #[inline]
    fn at(&self, row: Row, s: usize) -> Value {
        match row {
            Row::Imm(v) => v,
            Row::At(r) => self.get(r, s),
        }
    }

    /// Commits `src` to row `r` under `live`: the payload of the live
    /// slots plus a masked merge of the float word.
    #[inline(always)]
    fn write(&mut self, r: usize, src: RowRef<'_>, live: u64) {
        store_live(&mut self.bits[r * self.ns..(r + 1) * self.ns], src.bits, live);
        self.floats[r] = self.floats[r] & !live | src.floats & live;
    }

    /// Sets the live slots of row `r` to the payloads `bits(slot)`, all
    /// of one type.
    #[inline]
    fn fill_with(&mut self, r: usize, float: bool, live: u64, mut bits: impl FnMut(usize) -> u64) {
        let dst = &mut self.bits[r * self.ns..(r + 1) * self.ns];
        if let Some((lo, hi)) = single_run(live) {
            for (i, d) in dst[lo..hi].iter_mut().enumerate() {
                *d = bits(lo + i);
            }
        } else {
            for s in lanes(live) {
                dst[s] = bits(s);
            }
        }
        self.floats[r] = if float { self.floats[r] | live } else { self.floats[r] & !live };
    }

    /// Sets row `r` to `v` under `live`.
    #[inline]
    fn fill(&mut self, r: usize, v: Value, live: u64) {
        let (bits, float) = encode(v);
        self.fill_with(r, float, live, |_| bits);
    }

    /// Row `dst` ← `src` of these same columns, under `live`.
    #[inline]
    fn assign(&mut self, dst: usize, src: Row, live: u64) {
        match src {
            Row::Imm(v) => self.fill(dst, v, live),
            Row::At(r) if r == dst => {}
            Row::At(r) => {
                // Two distinct rows of one vector, split to borrow both.
                let ns = self.ns;
                let (head, tail) = self.bits.split_at_mut(dst.max(r) * ns);
                let (lower, upper) = (&mut head[dst.min(r) * ns..][..ns], &mut tail[..ns]);
                if dst < r {
                    store_live(lower, upper, live);
                } else {
                    store_live(upper, lower, live);
                }
                self.floats[dst] = self.floats[dst] & !live | self.floats[r] & live;
            }
        }
    }

    /// Row `dst` ← `src` resolved in another column set, under `live`.
    #[inline]
    fn assign_from(&mut self, dst: usize, from: &SlotCols, src: Row, live: u64) {
        match src {
            Row::Imm(v) => self.fill(dst, v, live),
            Row::At(r) => self.write(dst, from.row(r), live),
        }
    }

    /// The one in-range integer address every live slot of `row` holds,
    /// if there is one — the precondition of the row-copy memory paths.
    #[inline]
    fn uniform_addr(&self, row: Row, live: u64, len: usize) -> Option<usize> {
        let a = match row {
            Row::Imm(v) => v.as_i64(),
            Row::At(_) if live == 0 => return None,
            Row::At(r) => {
                let row = self.row(r);
                let a0 = row.bits[live.trailing_zeros() as usize];
                let differs = |d, &x| d | (x ^ a0);
                let diff = match single_run(live) {
                    Some((lo, hi)) => row.bits[lo..hi].iter().fold(0, differs),
                    None => lanes(live).map(|s| &row.bits[s]).fold(0, differs),
                };
                if diff | (row.floats & live) != 0 {
                    return None;
                }
                a0 as i64
            }
        };
        (a >= 0 && (a as usize) < len).then_some(a as usize)
    }
}

/// How a row's live slots are typed.
enum Class {
    Int,
    Float,
    Mixed,
}

/// Classifies a float-mask word over the live slots only: a dead slot's
/// stale type must not demote a row to the mixed loop.
#[inline]
fn class(floats: u64, live: u64) -> Class {
    match floats & live {
        0 => Class::Int,
        m if m == live => Class::Float,
        _ => Class::Mixed,
    }
}

// Operand tags of [`map_rows`]: a loop-constant type, or the row's
// float mask consulted per slot.
const INT: u8 = 0;
const FLOAT: u8 = 1;
const PER_SLOT: u8 = 2;

/// One typed loop over the live slots of two operand rows: calls
/// `f(slot, a, b)` and, when it returns a value, stores it in `out`;
/// returns the float mask of the stored results. With `INT`/`FLOAT`
/// tags the `Value`s handed to `f` carry loop-constant tags, so a kernel
/// from [`crate::alu`] inlines to its bare `i64`/`f64` operation over
/// `&[u64]` slices; `PER_SLOT` is the same loop reading each slot's tag
/// from the row's mask.
#[inline(always)]
fn map_rows<const A: u8, const B: u8>(
    a: RowRef<'_>,
    b: RowRef<'_>,
    live: u64,
    out: &mut [u64],
    mut f: impl FnMut(usize, Value, Value) -> Option<Value>,
) -> u64 {
    #[inline(always)]
    fn tagged<const T: u8>(bits: u64, floats: u64, s: usize) -> Value {
        decode(bits, if T == PER_SLOT { floats >> s & 1 != 0 } else { T == FLOAT })
    }
    let mut floats = 0u64;
    let mut cell = |s: usize, o: &mut u64, x: u64, y: u64| {
        if let Some(v) = f(s, tagged::<A>(x, a.floats, s), tagged::<B>(y, b.floats, s)) {
            let (bits, float) = encode(v);
            *o = bits;
            floats |= u64::from(float) << s;
        }
    };
    if let Some((lo, hi)) = single_run(live) {
        let cells = out[lo..hi].iter_mut().zip(&a.bits[lo..hi]).zip(&b.bits[lo..hi]);
        for (i, ((o, &x), &y)) in cells.enumerate() {
            cell(lo + i, o, x, y);
        }
    } else {
        for s in lanes(live) {
            cell(s, &mut out[s], a.bits[s], b.bits[s]);
        }
    }
    floats
}

/// [`map_rows`] under the tags the rows' live slots allow: one of the
/// four dense instantiations when both rows are uniformly typed, the
/// per-slot loop for a mixed row (a `sel` between an int and a float on
/// a seed-dependent predicate, a load of cells whose type differs by
/// seed). Returns the result mask and whether the dense loop ran.
#[inline(always)]
fn map_typed(
    a: RowRef<'_>,
    b: RowRef<'_>,
    live: u64,
    out: &mut [u64],
    f: impl FnMut(usize, Value, Value) -> Option<Value>,
) -> (u64, bool) {
    use Class::{Float, Int};
    match (class(a.floats, live), class(b.floats, live)) {
        (Int, Int) => (map_rows::<INT, INT>(a, b, live, out, f), true),
        (Int, Float) => (map_rows::<INT, FLOAT>(a, b, live, out, f), true),
        (Float, Int) => (map_rows::<FLOAT, INT>(a, b, live, out, f), true),
        (Float, Float) => (map_rows::<FLOAT, FLOAT>(a, b, live, out, f), true),
        _ => (map_rows::<PER_SLOT, PER_SLOT>(a, b, live, out, f), false),
    }
}

/// Slots of `live` where `row` is truthy. Type-aware through
/// [`Value::is_truthy`]: `-0.0` is false though its bits are not zero.
#[inline]
fn truthy(row: RowRef<'_>, live: u64, out: &mut [u64]) -> u64 {
    let mut t = 0u64;
    map_typed(row, row, live, out, |s, x, _| {
        t |= u64::from(x.is_truthy()) << s;
        None
    });
    t
}

/// Row staging shared by the typed loops, hoisted out of every lane
/// loop: a result row awaiting its masked commit, and one broadcast row
/// per immediate operand (filled once per issue, so operands are always
/// read as rows, registers in place).
struct RowScratch {
    out: Vec<u64>,
    imm: [Vec<u64>; 2],
}

/// `op` broadcast into `buf` if it is an immediate.
#[inline]
fn imm_row(op: Operand, buf: &mut [u64]) -> Option<RowRef<'_>> {
    let Operand::Imm(v) = op else { return None };
    let (bits, float) = encode(v);
    buf.fill(bits);
    Some(RowRef { bits: buf, floats: if float { u64::MAX } else { 0 } })
}

/// The row of `op`: its broadcast when an immediate, else the register's
/// row in the frame at `base`, read in place.
#[inline]
fn operand_row<'a>(
    imm: Option<RowRef<'a>>,
    regs: &'a SlotCols,
    base: usize,
    op: Operand,
) -> RowRef<'a> {
    match op {
        Operand::Reg(r) => regs.row(base + r.index()),
        Operand::Imm(_) => imm.expect("immediate operands are broadcast before the lane loop"),
    }
}

/// A memory instruction's data direction.
#[derive(Clone, Copy)]
enum MemOp {
    Load(simt_ir::Reg),
    Store(Operand),
}

/// One lane's *data* columns, shared by every sub-cohort: sub-cohorts
/// address disjoint slot sets, so masked access needs no locking and a
/// fork moves nothing.
#[derive(Clone, Debug)]
struct DLane {
    /// Registers, one row per arena offset: a bump arena over each
    /// sub-cohort's frame stack (frame `i` owns rows `frames[i].base ..
    /// frames[i].base + frames[i].len`). Sized to the deepest
    /// sub-cohort; never shrinks.
    regs: SlotCols,
    /// Per-slot RNG streams.
    rng: Vec<SplitMix64>,
    /// Local memory, one row per cell.
    local: SlotCols,
}

impl CtlLane {
    /// Register base offset of the top (live) frame.
    #[inline]
    fn cur_base(&self) -> usize {
        self.frames.last().expect("lane has no frame").base
    }

    /// Pushes a callee frame: extends the arena by `num_regs` rows,
    /// default-initializing the new window for `slots` only — other
    /// sub-cohorts share the arena and may hold live values (and float
    /// mask bits) in these rows' other slots.
    fn push_frame(
        &mut self,
        d: &mut DLane,
        slots: u64,
        pc: usize,
        ret_regs: PoolRange,
        num_regs: usize,
    ) {
        let base = self.top;
        self.top += num_regs;
        d.regs.grow(self.top);
        for r in base..self.top {
            d.regs.fill(r, Value::default(), slots);
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
    /// Global memory, one row per address.
    global: SlotCols,
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

        let slots = if nslots == 64 { u64::MAX } else { (1u64 << nslots) - 1 };
        // Every lane starts from the same columns: the arguments
        // broadcast over the kernel frame, zeroed local memory.
        let mut regs = SlotCols::new(num_regs, nslots);
        for (i, a) in launch.args.iter().enumerate() {
            regs.fill(i, *a, slots);
        }
        let local = SlotCols::new(launch.local_mem_size, nslots);

        let mut warps = Vec::with_capacity(launch.num_warps);
        let mut data = Vec::with_capacity(launch.num_warps);
        for w in 0..launch.num_warps {
            let mut lanes_c = Vec::with_capacity(width);
            let mut lanes_d = Vec::with_capacity(width);
            for lane in 0..width {
                let tid = (w * width + lane) as u64;
                lanes_c.push(CtlLane {
                    frames: vec![Frame { pc: entry, ret_regs: PoolRange::EMPTY, base: 0 }],
                    top: num_regs,
                });
                lanes_d.push(DLane {
                    regs: regs.clone(),
                    rng: (0..nslots)
                        .map(|s| SplitMix64::for_sweep_instance(sweep.seed_lo, s as u64, tid))
                        .collect(),
                    local: local.clone(),
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

        let mut global = SlotCols::new(launch.global_mem.len(), nslots);
        for (a, v) in launch.global_mem.iter().enumerate() {
            global.fill(a, *v, slots);
        }

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
            addrs: AddrStage::default(),
            scratch: RowScratch { out: vec![0; nslots], imm: [vec![0; nslots], vec![0; nslots]] },
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

    /// Resolves the slots that faulted in warp `w`'s issue at `pc`.
    fn resolve_faults(&mut self, sub: &mut SubCohort, w: usize, pc: usize, faults: Faults) {
        for (s, fault) in faults.list {
            let e = fault.into_error(|l| self.image.location(w, l, pc));
            self.resolve_err(sub, s, e);
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
        for s in lanes(sub.slots) {
            let mut metrics = sub.metrics.combine(&self.bases[s], u64::wrapping_add);
            metrics.cycles = sub.cycle;
            let global_mem = (0..self.global_len).map(|a| self.global.get(a, s)).collect();
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
    fn batch_fault_free_c(
        &mut self,
        sub: &SubCohort,
        w: usize,
        mask: u64,
        inst: &DecodedInst,
    ) -> bool {
        let Some((lhs, rhs, cond)) = crate::alu::fault_cond(inst) else { return true };
        let live = sub.slots;
        let Cohort { data, scratch: RowScratch { out, imm: [ia, ib] }, .. } = self;
        let (ia, ib) = (imm_row(lhs, ia), imm_row(rhs, ib));
        lanes(mask).all(|l| {
            let base = sub.warps[w].lanes_c[l].cur_base();
            let regs = &data[w].lanes_d[l].regs;
            let (a, b) = (operand_row(ia, regs, base, lhs), operand_row(ib, regs, base, rhs));
            // On uniformly typed rows the tags are constants and the
            // condition folds to what is left of it: nothing for the
            // bitwise ops, a zero scan of the live divisors for div/rem.
            let mut ok = true;
            map_typed(a, b, live, out, |_, x, y| {
                ok &= cond.ok(x, y);
                None
            });
            ok
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

/// The slots that faulted during one issue, each with its first fault in
/// lane order; resolved once the issue's borrows end
/// ([`Cohort::resolve_faults`]).
#[derive(Default)]
struct Faults {
    mask: u64,
    list: Vec<(usize, LaneFault)>,
}

impl Faults {
    fn push(&mut self, s: usize, fault: LaneFault) {
        self.mask |= 1 << s;
        self.list.push((s, fault));
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
/// lane in lane order, exactly like its scalar run. Per lane, the
/// operand rows are read in place and classified once over the live
/// slots; the kernel then runs as one [`map_typed`] loop into the
/// result row, which commits under the sub-cohort's slot mask.
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
        let mut faults = Faults::default();
        let mut dense_rows = 0u64;
        {
            let Cohort { data, scratch: RowScratch { out, imm: [ia, ib] }, .. } = &mut *cohort;
            let (ia, ib) = (imm_row(lhs, ia), imm_row(rhs, ib));
            let cw = &mut sub.warps[w];
            let mut live = sub.slots;
            for l in lanes(mask) {
                let base = cw.lanes_c[l].cur_base();
                let regs = &mut data[w].lanes_d[l].regs;
                let (a, b) = (operand_row(ia, regs, base, lhs), operand_row(ib, regs, base, rhs));
                let (floats, dense) =
                    map_typed(a, b, live, out, |s, x, y| faults.value(s, l, k(x, y)));
                dense_rows += u64::from(dense);
                live &= !faults.mask;
                regs.write(base + dst.index(), RowRef { bits: out, floats }, live);
                cw.ctl.pcs[l] += 1;
            }
        }
        cohort.stats.dense_rows += dense_rows;
        cohort.stats.mixed_rows += u64::from(mask.count_ones()) - dense_rows;
        cohort.resolve_faults(sub, w, pc, faults);
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
// bookkeeping) happen once per sub-cohort; value effects happen per
// lane as row operations over the sub-cohort's slots.
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
        let live = sub.slots;
        match *inst {
            // The op is invariant across the slot columns, so it is
            // matched once out here: `SlotAlu` gets a tiny monomorphic
            // kernel its typed loops can inline. Unary kernels ignore
            // `rhs`.
            DecodedInst::Bin { op, dst, lhs, rhs } => {
                crate::alu::with_bin(op, SlotAlu { cohort: self, sub, pc, mask, w, dst, lhs, rhs });
            }
            DecodedInst::Un { op, dst, src } => {
                let rhs = Operand::Imm(Value::default());
                let alu = SlotAlu { cohort: self, sub, pc, mask, w, dst, lhs: src, rhs };
                crate::alu::with_un(op, alu);
            }
            DecodedInst::Mov { dst, src } => {
                self.data_c(sub, w, mask, |dl, base, _l| {
                    dl.regs.assign(base + dst.index(), resolve(base, src), live);
                });
            }
            DecodedInst::Sel { dst, cond, if_true, if_false } => {
                let Cohort { data, scratch: RowScratch { out, imm: [it, ie] }, .. } = self;
                let (it, ie) = (imm_row(if_true, it), imm_row(if_false, ie));
                let cw = &mut sub.warps[w];
                for l in lanes(mask) {
                    let base = cw.lanes_c[l].cur_base();
                    let regs = &mut data[w].lanes_d[l].regs;
                    let t = match cond {
                        Operand::Imm(v) if v.is_truthy() => live,
                        Operand::Imm(_) => 0,
                        Operand::Reg(r) => truthy(regs.row(base + r.index()), live, out),
                    };
                    let (x, y) = (
                        operand_row(it, regs, base, if_true),
                        operand_row(ie, regs, base, if_false),
                    );
                    // A select moves payloads and type bits untouched, so
                    // it blends whole rows; the commit keeps to `live`.
                    for (s, ((o, &x), &y)) in out.iter_mut().zip(x.bits).zip(y.bits).enumerate() {
                        *o = if t >> s & 1 != 0 { x } else { y };
                    }
                    let floats = x.floats & t | y.floats & !t;
                    regs.write(base + dst.index(), RowRef { bits: out, floats }, live);
                    cw.ctl.pcs[l] += 1;
                }
            }
            DecodedInst::Load { dst, space, addr } => match space {
                MemSpace::Global => {
                    return self.access_global_c(sub, pc, mask, ctx, addr, MemOp::Load(dst), cost);
                }
                MemSpace::Local => self.access_local_c(sub, pc, mask, w, addr, MemOp::Load(dst)),
            },
            DecodedInst::Store { space, addr, value } => match space {
                MemSpace::Global => {
                    return self.access_global_c(
                        sub,
                        pc,
                        mask,
                        ctx,
                        addr,
                        MemOp::Store(value),
                        cost,
                    );
                }
                MemSpace::Local => self.access_local_c(sub, pc, mask, w, addr, MemOp::Store(value)),
            },
            DecodedInst::AtomicAdd { dst, addr, value } => {
                let atomic = SlotAtomic { cohort: self, sub, pc, mask, w, dst, addr, value };
                crate::alu::with_bin(BinOp::Add, atomic);
            }
            DecodedInst::Special { dst, kind } => {
                let width = self.cfg.warp_width;
                let n_threads = (self.data.len() * width) as i64;
                self.data_c(sub, w, mask, |dl, base, l| {
                    let v = match kind {
                        SpecialValue::Tid => (w * width + l) as i64,
                        SpecialValue::LaneId => l as i64,
                        SpecialValue::WarpId => w as i64,
                        SpecialValue::NumThreads => n_threads,
                        SpecialValue::WarpWidth => width as i64,
                    };
                    dl.regs.fill(base + dst.index(), Value::I64(v), live);
                });
            }
            DecodedInst::Rng { dst, kind } => {
                self.data_c(sub, w, mask, |DLane { regs, rng, .. }, base, _l| {
                    let row = base + dst.index();
                    match kind {
                        RngKind::U63 => {
                            regs.fill_with(row, false, live, |s| rng[s].next_u63() as u64);
                        }
                        RngKind::Unit => {
                            regs.fill_with(row, true, live, |s| rng[s].next_unit().to_bits());
                        }
                    }
                });
            }
            DecodedInst::SyncThreads => sub.warps[w].ctl.sync_arrive(mask, &mut |_| {}),
            DecodedInst::Vote { dst, pred } => {
                // Warp-synchronous count — per slot, over the same
                // issued mask.
                let mut counts = [0u64; COHORT_SLOTS];
                {
                    let Cohort { data, scratch: RowScratch { out, imm: [ip, _] }, .. } = &mut *self;
                    let ip = imm_row(pred, ip);
                    for l in lanes(mask) {
                        let base = sub.warps[w].lanes_c[l].cur_base();
                        let t = truthy(
                            operand_row(ip, &data[w].lanes_d[l].regs, base, pred),
                            live,
                            out,
                        );
                        for (s, c) in counts.iter_mut().enumerate() {
                            *c += t >> s & 1;
                        }
                    }
                }
                let ns = self.nslots;
                self.data_c(sub, w, mask, |dl, base, _l| {
                    let counts = RowRef { bits: &counts[..ns], floats: 0 };
                    dl.regs.write(base + dst.index(), counts, live);
                });
            }
            DecodedInst::SeedRng { src } => {
                let launch_mix = 0x5EED_u64; // stream domain separator
                self.data_c(sub, w, mask, |dl, base, _l| {
                    for s in lanes(live) {
                        let v = dl.regs.at(resolve(base, src), s).as_i64() as u64;
                        dl.rng[s] = SplitMix64::for_thread(v ^ launch_mix, v);
                    }
                });
            }
            DecodedInst::Call { entry_pc, num_regs, args, rets } => {
                let arg_ops = image.operands(args);
                let cw = &mut sub.warps[w];
                let dw = &mut self.data[w];
                for l in lanes(mask) {
                    let ret_pc = cw.ctl.pcs[l] + 1;
                    let cl = &mut cw.lanes_c[l];
                    let dl = &mut dw.lanes_d[l];
                    let base = cl.cur_base();
                    // Suspend the caller: save its resume point.
                    cl.frames.last_mut().expect("lane has no frame").pc = ret_pc;
                    cl.push_frame(dl, live, entry_pc as usize, rets, num_regs as usize);
                    // Arguments are row copies out of the caller window,
                    // which stays intact under the callee's.
                    let nb = cl.cur_base();
                    for (i, a) in arg_ops.iter().enumerate() {
                        dl.regs.assign(nb + i, resolve(base, *a), live);
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
                    self.data_c(sub, w, mask, |dl, base, _l| {
                        dl.regs.fill(base + dst.index(), n, live);
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
                // One truthy slot-mask per lane. A lane whose slots all
                // agree needs no per-slot state; only when some lane's
                // slots disagree are the per-slot taken masks built, and
                // each class disagreeing with the largest one forks off
                // *before* the branch applies.
                let mut lane_t = [0u64; 64];
                let mut taken = 0u64;
                let mut agree = true;
                {
                    let Cohort { data, scratch: RowScratch { out, imm: [ic, _] }, .. } = &mut *self;
                    let ic = imm_row(cond, ic);
                    for l in lanes(mask) {
                        let base = sub.warps[w].lanes_c[l].cur_base();
                        let t = truthy(
                            operand_row(ic, &data[w].lanes_d[l].regs, base, cond),
                            live,
                            out,
                        );
                        lane_t[l] = t;
                        taken |= u64::from(t == live) << l;
                        agree &= t == live || t == 0;
                    }
                }
                if !agree {
                    let mut takens = [0u64; COHORT_SLOTS];
                    for l in lanes(mask) {
                        for s in lanes(lane_t[l]) {
                            takens[s] |= 1 << l;
                        }
                    }
                    for class in partition_classes(live, |s| takens[s]) {
                        self.split_off(sub, class, ctx);
                    }
                    taken = takens[sub.slots.trailing_zeros() as usize];
                }
                let cw = &mut sub.warps[w];
                for l in lanes(mask) {
                    cw.ctl.pcs[l] =
                        if taken & (1 << l) != 0 { then_pc as usize } else { else_pc as usize };
                }
            }
            DecodedInst::Return { values } => {
                let value_ops = image.operands(values);
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
                    // Values are row copies out of the callee window,
                    // which keeps its cells after the pop.
                    let fm = cl.pop_frame();
                    let cbase = cl.cur_base();
                    for (r, v) in image.regs(fm.ret_regs).iter().zip(value_ops) {
                        dl.regs.assign(cbase + r.index(), resolve(fm.base, *v), live);
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

    /// Shared loop shape for the infallible per-lane data arms: `f` gets
    /// the lane's data columns, the live frame's base and the lane index.
    fn data_c(
        &mut self,
        sub: &mut SubCohort,
        w: usize,
        mask: u64,
        mut f: impl FnMut(&mut DLane, usize, usize),
    ) {
        let cw = &mut sub.warps[w];
        let dw = &mut self.data[w];
        for l in lanes(mask) {
            let base = cw.lanes_c[l].cur_base();
            f(&mut dw.lanes_d[l], base, l);
            cw.ctl.pcs[l] += 1;
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
    /// When every lane's address is one in-range integer across the
    /// slots — all of them, on seed-independent access streams — there
    /// is one address list: no slot can fault, the flat fold runs once
    /// and cannot fork, and phase 3 is one row copy per lane.
    #[allow(clippy::too_many_arguments)]
    fn access_global_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        ctx: IssueCtx,
        addr: Operand,
        op: MemOp,
        base_cost: u32,
    ) -> u32 {
        let w = ctx.w;
        let oob = self.stage_addrs(sub, w, mask, addr);
        if self.addrs.uniform {
            self.stats.uniform_accesses += 1;
        } else {
            self.stats.scattered_accesses += 1;
        }
        let glen = self.global_len;
        let mut faults = Faults::default();
        for s in lanes(oob) {
            let (lane, &addr) = lanes(mask)
                .zip(self.addrs.of(s))
                .find(|&(_, &a)| a < 0 || a as usize >= glen)
                .expect("faulted slot has a faulting lane");
            faults.push(s, LaneFault::Oob { lane, addr, size: glen, space: MemSpace::Global });
        }
        self.resolve_faults(sub, w, pc, faults);
        if sub.slots == 0 {
            return base_cost;
        }
        let cost = match &self.cfg.mem {
            Some(hier) => self.walk_hier_c(sub, ctx, hier, matches!(op, MemOp::Store(_))),
            None => self.fold_flat_c(sub, ctx, base_cost),
        };
        // Phase 3: value movement for the slots that stayed.
        let live = sub.slots;
        let Cohort { data, addrs, global, .. } = self;
        let cw = &mut sub.warps[w];
        for (idx, l) in lanes(mask).enumerate() {
            let base = cw.lanes_c[l].cur_base();
            let regs = &mut data[w].lanes_d[l].regs;
            if addrs.uniform {
                let a = addrs.buf[idx] as usize;
                match op {
                    MemOp::Load(dst) => regs.write(base + dst.index(), global.row(a), live),
                    MemOp::Store(v) => global.assign_from(a, regs, resolve(base, v), live),
                }
            } else {
                for s in lanes(live) {
                    let a = addrs.of(s)[idx] as usize;
                    match op {
                        MemOp::Load(dst) => regs.set(base + dst.index(), s, global.get(a, s)),
                        MemOp::Store(v) => global.set(a, s, regs.at(resolve(base, v), s)),
                    }
                }
            }
            cw.ctl.pcs[l] += 1;
        }
        cost
    }

    /// Phase 1 of a global access: fills [`Cohort::addrs`] with the
    /// issued lanes' addresses and returns the slots holding an
    /// out-of-range one (always none when the stage comes out uniform).
    fn stage_addrs(&mut self, sub: &SubCohort, w: usize, mask: u64, addr: Operand) -> u64 {
        let (ns, glen, live) = (self.nslots, self.global_len, sub.slots);
        let k = mask.count_ones() as usize;
        let Cohort { data, addrs, scratch: RowScratch { out, imm: [ia, _] }, .. } = self;
        let cw = &sub.warps[w];
        addrs.k = k;
        addrs.buf.clear();
        addrs.uniform = lanes(mask).all(|l| {
            let base = cw.lanes_c[l].cur_base();
            let a = data[w].lanes_d[l].regs.uniform_addr(resolve(base, addr), live, glen);
            addrs.buf.extend(a.map(|a| a as i64));
            a.is_some()
        });
        if addrs.uniform {
            return 0;
        }
        addrs.buf.clear();
        addrs.buf.resize(ns * k, 0);
        let ia = imm_row(addr, ia);
        let mut oob = 0u64;
        for (idx, l) in lanes(mask).enumerate() {
            let base = cw.lanes_c[l].cur_base();
            let row = operand_row(ia, &data[w].lanes_d[l].regs, base, addr);
            map_typed(row, row, live, out, |s, x, _| {
                let a = x.as_i64();
                addrs.buf[s * k + idx] = a;
                oob |= u64::from(a < 0 || a as usize >= glen) << s;
                None
            });
        }
        oob
    }

    /// Phase 2 under the flat model: the coalescing-segment fold per
    /// slot as the fork key (one fold for a uniform stage).
    fn fold_flat_c(&mut self, sub: &mut SubCohort, ctx: IssueCtx, base_cost: u32) -> u32 {
        let Cohort { addrs, lines_buf, cfg, .. } = self;
        let lat = &cfg.latency;
        let mut cost_of = |s: usize| {
            base_cost + lat.mem_segment * lat.segments_in(addrs.of(s), lines_buf).saturating_sub(1)
        };
        if addrs.uniform {
            return cost_of(0);
        }
        let mut costs = [0u32; COHORT_SLOTS];
        for s in lanes(sub.slots) {
            costs[s] = cost_of(s);
        }
        for class in partition_classes(sub.slots, |s| costs[s]) {
            self.split_off(sub, class, ctx);
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
    fn walk_hier_c(
        &mut self,
        sub: &mut SubCohort,
        ctx: IssueCtx,
        hier: &crate::mem::MemHierarchy,
        store: bool,
    ) -> u32 {
        let w = ctx.w;
        // Global accesses never batch (`is_warp_local` excludes them),
        // so the issue cycle of every engine is its round clock.
        let now = sub.cycle;
        let mut outs = [crate::mem::AccessOutcome::default(); COHORT_SLOTS];
        for s in lanes(sub.slots) {
            let Cohort { data, addrs, mshrs, mem_scratch, .. } = &mut *self;
            outs[s] = crate::mem::probe(
                hier,
                &data[w].hier_tags[s],
                &mshrs[s],
                mem_scratch,
                addrs.of(s),
                now,
            );
        }
        for class in partition_classes(sub.slots, |s| outs[s]) {
            self.split_off(sub, class, ctx);
        }
        let winners = sub.slots;
        let out = outs[winners.trailing_zeros() as usize];
        for s in lanes(winners) {
            let Cohort { data, addrs, mshrs, mem_scratch, .. } = &mut *self;
            let tags = &mut data[w].hier_tags[s];
            let applied =
                crate::mem::commit(hier, tags, &mut mshrs[s], mem_scratch, addrs.of(s), now);
            debug_assert_eq!(applied, out, "commit must replay the probed outcome");
        }
        if store {
            self.invalidate_lines_c(winners);
        }
        sub.metrics.mem.record(&out);
        sub.metrics.cache_hits += u64::from(out.levels[0].hits);
        sub.metrics.cache_misses += u64::from(out.levels[0].misses);
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
    /// split the sub-cohort (and they resolve, not fork). A lane whose
    /// slots agree on one in-range address moves its row in one copy.
    fn access_local_c(
        &mut self,
        sub: &mut SubCohort,
        pc: usize,
        mask: u64,
        w: usize,
        addr: Operand,
        op: MemOp,
    ) {
        let llen = self.local_len;
        let mut faults = Faults::default();
        {
            let cw = &mut sub.warps[w];
            let dw = &mut self.data[w];
            let mut live = sub.slots;
            for l in lanes(mask) {
                let base = cw.lanes_c[l].cur_base();
                let DLane { regs, local, .. } = &mut dw.lanes_d[l];
                let arow = resolve(base, addr);
                if let Some(a) = regs.uniform_addr(arow, live, llen) {
                    match op {
                        MemOp::Load(dst) => regs.write(base + dst.index(), local.row(a), live),
                        MemOp::Store(v) => local.assign_from(a, regs, resolve(base, v), live),
                    }
                } else {
                    for s in lanes(live) {
                        let a = regs.at(arow, s).as_i64();
                        if a < 0 || a as usize >= llen {
                            let space = MemSpace::Local;
                            faults.push(s, LaneFault::Oob { lane: l, addr: a, size: llen, space });
                            continue;
                        }
                        let a = a as usize;
                        match op {
                            MemOp::Load(dst) => regs.set(base + dst.index(), s, local.get(a, s)),
                            MemOp::Store(v) => local.set(a, s, regs.at(resolve(base, v), s)),
                        }
                    }
                    live &= !faults.mask;
                }
                cw.ctl.pcs[l] += 1;
            }
        }
        self.resolve_faults(sub, w, pc, faults);
    }
}

/// The cohort's loop shape for `atomic_add`, handed the `add` kernel by
/// [`crate::alu::with_bin`]. Static cost (no coalescing model), touched
/// lines invalidated per slot. Walked lane-major: each slot owns its own
/// global column, so every slot still sees its lanes serialized in lane
/// order and stops at its first fault. A lane whose slots agree on one
/// in-range address — a seed-independent tally bin — adds its value row
/// into that cell's row as one typed row operation; any other lane goes
/// slot by slot.
struct SlotAtomic<'a, 'm> {
    cohort: &'a mut Cohort<'m>,
    sub: &'a mut SubCohort,
    pc: usize,
    mask: u64,
    w: usize,
    dst: simt_ir::Reg,
    addr: Operand,
    value: Operand,
}

impl AluLoop for SlotAtomic<'_, '_> {
    type Out = ();
    #[inline]
    fn run(self, k: impl Fn(Value, Value) -> Result<Value, String>) {
        let SlotAtomic { cohort, sub, pc, mask, w, dst, addr, value } = self;
        let (ns, glen, slots) = (cohort.nslots, cohort.global_len, sub.slots);
        let lanes_k = mask.count_ones() as usize;
        let mut faults = Faults::default();
        {
            let Cohort {
                data, global, addrs, cfg, scratch: RowScratch { out, imm: [iv, _] }, ..
            } = &mut *cohort;
            let iv = imm_row(value, iv);
            // The addresses are staged for the write-through invalidation
            // alone, which only a memory hierarchy has.
            let staged = cfg.mem.is_some();
            if staged {
                addrs.k = lanes_k;
                addrs.uniform = false;
                addrs.buf.clear();
                addrs.buf.resize(ns * lanes_k, 0);
            }
            let cw = &mut sub.warps[w];
            let mut live = slots;
            for (idx, l) in lanes(mask).enumerate() {
                let base = cw.lanes_c[l].cur_base();
                let regs = &mut data[w].lanes_d[l].regs;
                let (arow, drow) = (resolve(base, addr), base + dst.index());
                if let Some(a) = regs.uniform_addr(arow, live, glen) {
                    let v = operand_row(iv, regs, base, value);
                    let cell = global.row(a);
                    let (floats, _) =
                        map_typed(cell, v, live, out, |s, old, v| faults.value(s, l, k(old, v)));
                    live &= !faults.mask;
                    regs.write(drow, global.row(a), live);
                    global.write(a, RowRef { bits: out, floats }, live);
                    if staged {
                        for s in lanes(live) {
                            addrs.buf[s * lanes_k + idx] = a as i64;
                        }
                    }
                } else {
                    let vrow = resolve(base, value);
                    for s in lanes(live) {
                        let a = regs.at(arow, s).as_i64();
                        let old = match usize::try_from(a) {
                            Ok(a) if a < glen => global.get(a, s),
                            _ => {
                                let space = MemSpace::Global;
                                let fault = LaneFault::Oob { lane: l, addr: a, size: glen, space };
                                faults.push(s, fault);
                                continue;
                            }
                        };
                        let Some(new) = faults.value(s, l, k(old, regs.at(vrow, s))) else {
                            continue;
                        };
                        global.set(a as usize, s, new);
                        regs.set(drow, s, old);
                        if staged {
                            addrs.buf[s * lanes_k + idx] = a;
                        }
                    }
                    live &= !faults.mask;
                }
                cw.ctl.pcs[l] += 1;
            }
        }
        // Faulted slots' runs discard all state, so only the survivors'
        // write-through invalidation is observable.
        cohort.invalidate_lines_c(slots & !faults.mask);
        cohort.resolve_faults(sub, w, pc, faults);
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
                    // Bits, not `PartialEq`: a NaN must equal itself and
                    // `-0.0` must not equal `0.0`.
                    let bits = |m: &[Value]| m.iter().map(|&v| encode(v)).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&s.global_mem),
                        bits(&r.global_mem),
                        "global memory differs for seed {seed}"
                    );
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
    /// buffer, frame stack and register arena has reached its high-water
    /// mark, a round of a non-forking cohort — loads, stores, an atomic,
    /// a call, RNG, barriers — allocates nothing.
    #[test]
    fn round_is_allocation_free_in_steady_state() {
        let image = DecodedImage::decode(&parse_and_link(LOCKSTEP_KERNEL).unwrap());
        for mem in [None, Some(l1())] {
            let cfg = SimConfig { mem, ..SimConfig::default() };
            let sweep = SweepLaunch::new(launch("k", 2, 256, vec![Value::I64(400)]), 0, 32);
            let mut cohort = Cohort::new(&image, &cfg, &sweep, 32).expect("cohort builds");
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
            assert!(rounds >= 500, "kernel too short to observe steady state ({rounds} rounds)");
            assert_eq!(allocs, 0, "round allocated {allocs} times over {rounds} rounds");
            let s = cohort.stats;
            assert!(
                s.dense_rows > before.dense_rows && s.uniform_accesses > before.uniform_accesses,
                "the window exercised no data arm: {s:?}"
            );
            assert_eq!((s.forks, sub.slots.count_ones()), (0, 32), "the cohort never split");
        }
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
