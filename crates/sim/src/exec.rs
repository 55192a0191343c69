//! The decoded SIMT warp interpreter.
//!
//! This is the production execution engine: it runs a
//! [`DecodedImage`] produced by [`DecodedImage::decode`] instead of
//! walking the structured IR. The execution model is identical to the
//! tree-walking oracle in [`crate::reference`] (Volta-style independent
//! thread scheduling with convergence-barrier registers; see the module
//! docs there), and the two are kept bit-for-bit equivalent — same
//! metrics, memory, traces, profiles, RNG streams, and errors — which a
//! property test enforces. What changes is the hot loop:
//!
//! - a thread's PC is one flat `usize` and issuing indexes a dense
//!   `Vec<DecodedInst>` of `Copy` instructions with pre-resolved costs;
//! - thread groups are `(pc, u64 lane mask)` pairs end to end: grouping
//!   is one pass over packed `(pc << 6) | lane` keys with a fast path for
//!   converged warps, scheduling is [`crate::sched::select_group_mask`],
//!   and lane iteration is `trailing_zeros`/clear-lowest-bit ([`lanes`]);
//! - each warp carries incremental `runnable`/`waiting`/`at_sync`/
//!   `exited` masks maintained at the status transition points, so an
//!   issue slot never scans thread statuses;
//! - a warp's data is typed columns ([`SlotCols`]) whose slots are its
//!   lanes: registers in one warp-major arena — register `r` of the
//!   frame based at stack offset `base` is row `base + r`, lane `l`'s
//!   payload at `bits[(base + r) * warp_width + l]` and its type in bit
//!   `l` of the row's float word — and local memory, one row per cell;
//!   global memory is one-slot columns, one row per address. The call
//!   stack is control: the frames, bases and bump pointers live in the
//!   shared [`WarpCtl`], whose `call`/`ret` the cohort drives too;
//! - the data arms (`bin`/`un`, `mov`, `sel`, `br`, `vote`) are *row
//!   ops*: operands are resolved once per issue ([`Src`]), the issued
//!   lanes grouped by frame base (one group unless lanes sit at
//!   different call depths), and each operand row classified over those
//!   lanes with one AND on its float word; `BinOp`/`UnOp` are matched
//!   once per issue, and [`crate::alu::with_bin`] hands [`RowAlu`] the
//!   op's monomorphic kernel, which inlines under the loop-constant tags
//!   (`typed!`) to the bare `i64`/`f64` operation — the same kernels the
//!   cohort's slot loops instantiate; `special`, `rng` and `arrived`
//!   fill a row per group;
//! - loads, stores and atomics walk the issued lanes through the cell
//!   kernels the cohort's per-slot paths call too ([`crate::cols::cell`],
//!   [`move_cell`], [`add_cell`]);
//! - the straight-line batcher ([`crate::sched::run_ahead`]) pre-checks
//!   faults on float words ([`crate::cols::fault_free`]) and pays per
//!   batch for what a batch cannot change: [`Machine::exec`] returns where
//!   a group that moves together goes next instead of moving its lanes,
//!   so the lanes' pcs and [`Metrics::record_issues`] are written once;
//! - every buffer the loop needs (group keys, coalescing addresses)
//!   lives in a per-[`Machine`] [`Scratch`] arena — after warm-up (the
//!   register arena and frame table at the kernel's call depth),
//!   [`Machine::step`] performs **zero heap allocations** in steady
//!   state (a counting-allocator test enforces this).

use crate::alu::AluLoop;
use crate::barrier::{Status, WarpCtl};
use crate::cols::{
    add_cell, cell, encode, move_cell, tagged, typed, Class, MemOp, SlotCols, Src, FLOAT, INT,
    PER_SLOT,
};
use crate::config::{ReconvergenceModel, SimConfig};
use crate::decode::{DecodedImage, DecodedInst};
use crate::error::{LaneFault, SimError};
use crate::journal::JournalKind;
use crate::machine::{EngineStats, Launch, SimOutput};
use crate::metrics::Metrics;
use crate::observe::Observer;
use crate::recon::{Pick, ReconStats, RoundBufs, Rounds};
use crate::rng::SplitMix64;
use crate::sched::{lanes, Batcher, Issued, Run};
use simt_ir::{BarrierOp, BinOp, MemSpace, Operand, Reg, RngKind, Value};

/// `mask`'s lanes grouped by live frame base ([`BaseGroups`]).
#[inline(always)]
fn groups(ctl: &WarpCtl, mask: u64) -> BaseGroups<'_> {
    BaseGroups { bases: &ctl.bases, shared: ctl.shared, rest: mask }
}

/// [`groups`] for a data arm, counting the issue in `split` when its
/// lanes sit at more than one base.
#[inline(always)]
fn by_base<'a>(ctl: &'a WarpCtl, mask: u64, split: &mut u64) -> BaseGroups<'a> {
    if ctl.shared.is_none() {
        let b = ctl.bases[mask.trailing_zeros() as usize];
        *split += u64::from(lanes(mask).any(|l| ctl.bases[l] != b));
    }
    groups(ctl, mask)
}

/// The lanes of an issue grouped by live frame base, lowest lane first:
/// `(base, lanes)` pairs — a single pair while every lane shares its
/// base, one per call depth otherwise. A data arm runs one row op per
/// pair.
struct BaseGroups<'a> {
    bases: &'a [usize],
    shared: Option<usize>,
    rest: u64,
}

impl Iterator for BaseGroups<'_> {
    type Item = (usize, u64);
    #[inline(always)]
    fn next(&mut self) -> Option<(usize, u64)> {
        if self.rest == 0 {
            return None;
        }
        let (base, group) = match self.shared {
            Some(base) => (base, self.rest),
            None => {
                let base = self.bases[self.rest.trailing_zeros() as usize];
                let at_base = lanes(self.rest).filter(|&l| self.bases[l] == base);
                (base, at_base.fold(0, |m, l| m | 1 << l))
            }
        };
        self.rest &= !group;
        Some((base, group))
    }
}

/// The decoded engine's loop shape for the ALU arms, handed to
/// [`crate::alu::with_bin`]/[`with_un`](crate::alu::with_un): one typed
/// row op ([`alu_row`]) per frame-base group of the issued lanes, under
/// the tags its operand rows' float words give over those lanes. Returns
/// the first faulting lane in lane order.
struct RowAlu<'a> {
    regs: &'a mut SlotCols,
    ctl: &'a WarpCtl,
    stats: &'a mut EngineStats,
    mask: u64,
    dst: Reg,
    lhs: Operand,
    rhs: Operand,
}

impl AluLoop for RowAlu<'_> {
    type Out = Result<(), LaneFault>;
    #[inline]
    fn run(self, k: impl Fn(Value, Value) -> Result<Value, String>) -> Self::Out {
        let RowAlu { regs: cols, ctl, stats, mask, dst, lhs, rhs } = self;
        let (a, b) = (Src::of(lhs, 1), Src::of(rhs, 1));
        let mut first: Option<(usize, String)> = None;
        for (base, live) in by_base(ctl, mask, &mut stats.split_base_issues) {
            let ops = (base + dst.index(), a.at(base), b.at(base));
            let classes = (ops.1.class(&cols.floats, 1, live), ops.2.class(&cols.floats, 1, live));
            let (done, dense) = typed!(classes.0, classes.1, alu_row(cols, ops, live, &k));
            stats.mixed_rows += u64::from(!dense);
            // Groups interleave in lane order: the issue faults at the
            // lowest faulting lane of any group.
            if let Err(f) = done {
                if first.as_ref().is_none_or(|(lane, _)| f.0 < *lane) {
                    first = Some(f);
                }
            }
        }
        first.map_or(Ok(()), |(lane, message)| Err(LaneFault::Arith { lane, message }))
    }
}

/// One ALU row op: row `rd` ← `k(a, b)` for the lanes of `live`, all at
/// one frame base, in lane order under the operand tags `A`/`B`. Stops
/// at the first faulting lane and returns it with the kernel's message;
/// the lanes below it are written.
#[inline(always)]
fn alu_row<const A: u8, const B: u8>(
    cols: &mut SlotCols,
    (rd, a, b): (usize, Src, Src),
    live: u64,
    k: &impl Fn(Value, Value) -> Result<Value, String>,
) -> Result<(), (usize, String)> {
    let ((pa, ca, fa), (pb, cb, fb)) = (a.lane(cols, 0), b.lane(cols, 0));
    let (pd, mut done, mut floats) = (rd * cols.ns, live, 0u64);
    let mut out = Ok(());
    for l in lanes(live) {
        let x = pa.map_or(ca, |p| cols.bits[p + l]);
        let y = pb.map_or(cb, |p| cols.bits[p + l]);
        match k(tagged::<A>(x, fa, l), tagged::<B>(y, fb, l)) {
            Ok(v) => {
                let (bits, float) = encode(v);
                cols.bits[pd + l] = bits;
                floats |= u64::from(float) << l;
            }
            Err(message) => {
                done &= (1 << l) - 1;
                out = Err((l, message));
                break;
            }
        }
    }
    cols.floats[rd] = cols.floats[rd] & !done | floats;
    out
}

/// Whether executing `inst` over `mask` is guaranteed not to fault.
///
/// A batched issue must be infallible: errors surface in scheduling
/// order, and an error raised from look-ahead could preempt another
/// warp's earlier fault. The check is [`crate::alu`]'s fault condition
/// over each frame-base group's operand rows ([`crate::cols::fault_free`]:
/// one AND on the float words, plus a zero scan of an integer divisor)
/// — a faultable lane leaves the instruction to execute in its own
/// round, where ordering is exact.
///
/// Forced inline: the batcher is instantiated in both round shapes, and
/// with two call sites the compiler otherwise leaves this check — run
/// before every batched issue — out of line.
#[inline(always)]
fn batch_fault_free(warp: &Warp, mask: u64, inst: &DecodedInst) -> bool {
    let Some((lhs, rhs, cond)) = crate::alu::fault_cond(inst) else { return true };
    let (a, b) = (Src::of(lhs, 1), Src::of(rhs, 1));
    groups(&warp.ctl, mask).all(|(base, live)| {
        crate::cols::fault_free(&warp.regs, cond, a.at(base), b.at(base), 1, live)
    })
}

/// One warp of the decoded engine: the shared control plane plus its
/// lanes' data and this engine's scheduling hints and model state.
#[derive(Clone, Debug)]
pub(crate) struct Warp {
    /// PCs, statuses, call frames, barrier registers and scheduler state.
    pub(crate) ctl: WarpCtl,
    /// Registers: lanes as slots, register `r` of the frame based at
    /// offset `base` ([`WarpCtl::bases`]) at row `base + r`. Windows are
    /// not bounds-checked against each other: register indices below the
    /// function's `num_regs` are the IR verifier's contract.
    pub(crate) regs: SlotCols,
    /// Local memory: lanes as slots, one row per cell.
    pub(crate) local: SlotCols,
    /// Each lane's RNG stream.
    pub(crate) rng: Vec<SplitMix64>,
    /// Its scheduler memory between rounds: the pick hint and the pcs the
    /// last pick did not choose.
    pub(crate) pick: Pick,
    /// Per-level tag arrays of the memory-hierarchy cost model, when
    /// [`SimConfig::mem`] is on (empty otherwise).
    pub(crate) mem_tags: crate::mem::MemTags,
}

/// Reusable hot-loop buffers owned by the [`Machine`].
///
/// Everything the steady-state loop needs to stage variable-length data
/// lives here and is cleared — never dropped — between uses, so `step()`
/// stops allocating once each buffer has grown to its high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The rounds' pick groups and warp-split candidates.
    round: RoundBufs,
    /// Per-access cell addresses for the coalescing/cache cost model.
    addrs: Vec<i64>,
    /// Segment/line ids derived from `addrs`.
    lines: Vec<i64>,
    /// Memory-hierarchy walk staging (line sets per level, MSHR sort
    /// buffer).
    mem: crate::mem::MemScratch,
}

pub(crate) struct Machine<'m> {
    pub(crate) image: &'m DecodedImage,
    pub(crate) cfg: &'m SimConfig,
    /// Per-pc issue costs, `image.resolve_costs(&cfg.latency)`.
    pub(crate) costs: Vec<u32>,
    pub(crate) warps: Vec<Warp>,
    /// Global memory: one slot, one row per address.
    pub(crate) global: SlotCols,
    pub(crate) metrics: Metrics,
    pub(crate) obs: Observer,
    pub(crate) scratch: Scratch,
    /// Machine-wide MSHR files of the memory-hierarchy cost model
    /// (empty when [`SimConfig::mem`] is off).
    pub(crate) mshrs: crate::mem::MemMshrs,
    /// How the rounds were served; see [`EngineStats`].
    pub(crate) stats: EngineStats,
    pub(crate) cycle: u64,
}

/// A cloneable cooperative-cancellation flag for in-flight simulations.
///
/// Hand one to [`run_image_with`] and flip it from another thread
/// (deadline reaper, shutdown path, disconnected client) to stop the run
/// at the next scheduling round with [`SimError::Cancelled`]. The check
/// is a single relaxed atomic load per round, so the hot loop pays
/// nothing measurable; runs that complete never observe the token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Runs a kernel launch of a decoded image to completion.
///
/// Behaves exactly like [`run`](crate::machine::run) — which is
/// implemented as decode followed by this function — but lets callers
/// decode once and launch many times (the batch evaluation engine caches
/// images this way).
///
/// # Errors
///
/// Returns a [`SimError`] on deadlock, memory/arithmetic faults, cycle
/// budget exhaustion, or an invalid/unlinked module.
pub fn run_image(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
) -> Result<SimOutput, SimError> {
    run_image_with(image, cfg, launch, None)
}

/// [`run_image`] with an optional cooperative [`CancelToken`].
///
/// The token is polled between scheduling rounds; a cancelled run stops
/// with [`SimError::Cancelled`] carrying the cycle it was observed at.
/// Cancellation never corrupts shared state — the machine is local to
/// this call — so a caller (the evaluation service, for one) can keep
/// reusing its compiled-image cache after a cancelled run.
///
/// # Errors
///
/// Everything [`run_image`] returns, plus [`SimError::Cancelled`].
pub fn run_image_with(
    image: &DecodedImage,
    cfg: &SimConfig,
    launch: &Launch,
    cancel: Option<&CancelToken>,
) -> Result<SimOutput, SimError> {
    let mut machine = Machine::new(image, cfg, launch)?;
    match cancel {
        None => while !machine.step()? {},
        Some(token) => {
            while !machine.step()? {
                if token.is_cancelled() {
                    return Err(SimError::Cancelled { cycle: machine.cycle });
                }
            }
        }
    }
    Ok(machine.into_output())
}

impl<'m> Machine<'m> {
    /// Validates the launch and builds the initial machine state.
    pub(crate) fn new(
        image: &'m DecodedImage,
        cfg: &'m SimConfig,
        launch: &Launch,
    ) -> Result<Machine<'m>, SimError> {
        let (kfunc, ctl) = WarpCtl::for_launch(image, cfg, launch)?;
        let width = cfg.warp_width;
        // Every lane's kernel frame: zeroed, its first registers the
        // arguments.
        let mut regs = SlotCols::new(kfunc.num_regs as usize, width);
        for (r, a) in launch.args.iter().enumerate() {
            regs.fill_rows(r, 1, *a, ctl.lane_mask);
        }
        let mut warps = Vec::with_capacity(launch.num_warps);
        for w in 0..launch.num_warps {
            let tids = (w * width..(w + 1) * width).map(|tid| tid as u64);
            warps.push(Warp {
                regs: regs.clone(),
                local: SlotCols::new(launch.local_mem_size, width),
                rng: tids.map(|tid| SplitMix64::for_thread(launch.seed, tid)).collect(),
                pick: Pick::default(),
                mem_tags: crate::mem::MemTags::new(cfg.mem.as_ref()),
                ctl: ctl.clone(),
            });
        }

        Ok(Machine {
            image,
            cfg,
            costs: image.resolve_costs(&cfg.latency),
            warps,
            global: SlotCols::of_values(&launch.global_mem, 1),
            metrics: Metrics::new(launch.num_warps, width),
            obs: Observer::new(cfg),
            scratch: Scratch::default(),
            mshrs: crate::mem::MemMshrs::new(cfg.mem.as_ref()),
            stats: EngineStats::default(),
            cycle: 0,
        })
    }

    /// One scheduling round ([`crate::recon::step`]); `Ok(true)` once every
    /// warp has finished. After warm-up it allocates only on cold paths —
    /// buffer growth to a new high-water mark, terminal errors.
    pub(crate) fn step(&mut self) -> Result<bool, SimError> {
        crate::recon::step(self)
    }

    /// Finalizes the run into its output (consumes the machine); the
    /// final memory only when [`SimConfig::final_mem`] asks for it.
    pub(crate) fn into_output(self) -> SimOutput {
        let Machine { cfg, global, mut metrics, obs, stats, cycle, .. } = self;
        metrics.cycles = cycle;
        let global_mem =
            if cfg.final_mem { global.columns(1).pop().expect("one slot") } else { Vec::new() };
        obs.finish(metrics, stats, global_mem)
    }

    /// Issues one decoded instruction for the given group in a round of
    /// its own: executes it, moves the lanes where it sends them and
    /// records the issue. Returns its cycle cost.
    fn issue(&mut self, w: usize, pc: usize, mask: u64) -> Result<u32, SimError> {
        // Stall pressure is sampled before execution, matching the
        // reference engine: lanes parked on a convergence barrier at
        // the moment this group issues.
        let ctl = &self.warps[w].ctl;
        let waiting_lanes = ctl.waiting.count_ones();
        self.obs.waits(lanes(ctl.waiting).filter_map(|l| match ctl.status[l] {
            Status::Waiting(b) => Some(b),
            _ => None,
        }));

        let (cost, next) = self.exec(w, pc, mask)?;
        if let Some(next) = next {
            self.warps[w].ctl.move_to(mask, next);
        }

        let (roi, weight) = (self.image.roi[pc], u64::from(cost.max(1)));
        self.metrics.record_issues(w, mask, 1, weight, if roi { weight } else { 0 }, waiting_lanes);
        self.obs.issue(self.cycle, w, self.image.origin[pc], mask, cost, roi);
        Ok(cost)
    }

    /// Executes one barrier operation for the issued lane mask. Under
    /// the IPDOM stack model — pre-Volta hardware with no barrier
    /// register file — every compiler soft-barrier is an inert op that
    /// advances its lanes (the issue cost still accrues: the
    /// instruction occupies a slot). Registers stay zero there, so
    /// `arrived` reads 0 and reconvergence is the stack's job;
    /// `__syncthreads` is a separate instruction and keeps its real
    /// semantics. Returns whether the issued lanes move on to the next
    /// instruction ([`WarpCtl::barrier`]); they are left where they are.
    fn exec_barrier(&mut self, w: usize, mask: u64, op: BarrierOp) -> bool {
        let Machine { warps, obs, cycle, cfg, .. } = self;
        let warp = &mut warps[w];
        if let BarrierOp::ArrivedCount { dst, bar } = op {
            let n = Value::I64(warp.ctl.arrived(bar));
            for (base, live) in groups(&warp.ctl, mask) {
                warp.regs.fill_rows(base + dst.index(), 1, n, live);
            }
        }
        matches!(cfg.recon, ReconvergenceModel::IpdomStack)
            || warp.ctl.barrier(mask, op, &mut |k| obs.event(*cycle, w, k))
    }

    /// Executes the instruction at `pc` for `mask`, whose lanes all stand
    /// at `pc`; returns its cycle cost and where the group goes next. A
    /// group that moves together (to `pc + 1`, a jump target or a uniform
    /// branch's target) is left for the caller to move; `None` says the
    /// arm moved its lanes itself: a divergent branch, call, return,
    /// exit or blocking barrier. No arm reads the lanes' pcs, which lag
    /// behind inside a batch.
    fn exec(&mut self, w: usize, pc: usize, mask: u64) -> Result<(u32, Option<usize>), SimError> {
        // Reborrow through the image's own lifetime so instruction/pool
        // reads don't conflict with &mut self calls below; matching on the
        // place copies only the fields each arm binds, never the whole
        // instruction.
        let image = self.image;
        let inst = &image.insts[pc];
        let at = |l| image.location(w, l, pc);
        let mut cost = self.costs[pc];
        let next = match *inst {
            DecodedInst::Bin { op, dst, lhs, rhs } => {
                let Warp { regs, ctl, .. } = &mut self.warps[w];
                let alu = RowAlu { regs, ctl, stats: &mut self.stats, mask, dst, lhs, rhs };
                crate::alu::with_bin(op, alu).map_err(|f| f.into_error(at))?;
                Some(pc + 1)
            }
            DecodedInst::Un { op, dst, src } => {
                // Unary kernels ignore `rhs`; an immediate costs no read.
                let (Warp { regs, ctl, .. }, rhs) =
                    (&mut self.warps[w], Operand::Imm(Value::default()));
                let alu = RowAlu { regs, ctl, stats: &mut self.stats, mask, dst, lhs: src, rhs };
                crate::alu::with_un(op, alu).map_err(|f| f.into_error(at))?;
                Some(pc + 1)
            }
            DecodedInst::Mov { dst, src } => {
                let (Warp { regs, ctl, .. }, src) = (&mut self.warps[w], Src::of(src, 1));
                for (base, live) in by_base(ctl, mask, &mut self.stats.split_base_issues) {
                    regs.assign_rows(base + dst.index(), 1, src.at(base), live);
                }
                Some(pc + 1)
            }
            DecodedInst::Sel { dst, cond, if_true, if_false } => {
                let Warp { regs, ctl, .. } = &mut self.warps[w];
                let [cond, if_true, if_false] = [cond, if_true, if_false].map(|o| Src::of(o, 1));
                for (base, live) in by_base(ctl, mask, &mut self.stats.split_base_issues) {
                    // Payloads and type bits move untouched: two masked
                    // row copies (`cond` is read before either writes).
                    let (rd, t) = (base + dst.index(), cond.at(base).truthy(regs, live));
                    regs.assign_rows(rd, 1, if_true.at(base), t);
                    regs.assign_rows(rd, 1, if_false.at(base), live & !t);
                }
                Some(pc + 1)
            }
            DecodedInst::Load { dst, space, addr } => {
                let op = MemOp::Load(dst);
                cost = self.access(w, pc, mask, space, addr, op).map_err(|f| f.into_error(at))?;
                Some(pc + 1)
            }
            DecodedInst::Store { space, addr, value } => {
                let op = MemOp::Store(value);
                cost = self.access(w, pc, mask, space, addr, op).map_err(|f| f.into_error(at))?;
                Some(pc + 1)
            }
            DecodedInst::AtomicAdd { dst, addr, value } => {
                // Lanes are serialized in lane order, like hardware atomics
                // to the same address. Atomics bypass the cache and
                // invalidate the lines they touch.
                let cfg = self.cfg;
                let Machine { warps, global, scratch, .. } = self;
                let Warp { regs, ctl, .. } = &mut warps[w];
                let (addr, value, size) = (Src::of(addr, 1), Src::of(value, 1), global.rows());
                let add = |a, b| crate::alu::eval_bin(BinOp::Add, a, b);
                scratch.addrs.clear();
                let mut failed: Option<LaneFault> = None;
                for l in lanes(mask) {
                    let base = ctl.bases[l];
                    let a = addr.at(base).get(regs, l).as_i64();
                    let Some(m) = cell(a, size) else {
                        let space = MemSpace::Global;
                        failed = Some(LaneFault::Oob { lane: l, addr: a, size, space });
                        break;
                    };
                    let reg = (base + dst.index(), value.at(base), l);
                    if let Err(message) = add_cell(regs, reg, global, (m, 0), add) {
                        failed = Some(LaneFault::Arith { lane: l, message });
                        break;
                    }
                    scratch.addrs.push(a);
                }
                Self::invalidate_lines(cfg, warps, &scratch.addrs);
                if let Some(fault) = failed {
                    return Err(fault.into_error(at));
                }
                Some(pc + 1)
            }
            DecodedInst::Special { dst, kind } => {
                let (width, warps) = (self.cfg.warp_width, self.warps.len());
                let value = |l| crate::alu::special(kind, w, l, width, warps) as u64;
                let Warp { regs, ctl, .. } = &mut self.warps[w];
                for (base, live) in groups(ctl, mask) {
                    regs.fill_rows_with(base + dst.index(), 1, false, live, |_, l| value(l));
                }
                Some(pc + 1)
            }
            DecodedInst::Rng { dst, kind } => {
                let Warp { regs, ctl, rng, .. } = &mut self.warps[w];
                let mut draw = |l: usize| match kind {
                    RngKind::U63 => rng[l].next_u63() as u64,
                    RngKind::Unit => rng[l].next_unit().to_bits(),
                };
                let float = matches!(kind, RngKind::Unit);
                for (base, live) in groups(ctl, mask) {
                    regs.fill_rows_with(base + dst.index(), 1, float, live, |_, l| draw(l));
                }
                Some(pc + 1)
            }
            DecodedInst::SyncThreads => {
                let Machine { warps, obs, cycle, .. } = self;
                warps[w].ctl.sync_arrive(mask, &mut |k| obs.event(*cycle, w, k));
                None
            }
            DecodedInst::Vote { dst, pred } => {
                // Warp-synchronous: counts over the lanes issued together.
                let (Warp { regs, ctl, .. }, pred) = (&mut self.warps[w], Src::of(pred, 1));
                let votes = groups(ctl, mask);
                let t = votes.fold(0, |t, (base, live)| t | pred.at(base).truthy(regs, live));
                let count = Value::I64(i64::from(t.count_ones()));
                for (base, live) in by_base(ctl, mask, &mut self.stats.split_base_issues) {
                    regs.fill_rows(base + dst.index(), 1, count, live);
                }
                Some(pc + 1)
            }
            DecodedInst::SeedRng { src } => {
                let (Warp { regs, ctl, rng, .. }, src) = (&mut self.warps[w], Src::of(src, 1));
                for l in lanes(mask) {
                    rng[l] = SplitMix64::for_seed_rng(src.at(ctl.bases[l]).get(regs, l).as_i64());
                }
                Some(pc + 1)
            }
            DecodedInst::Call { entry_pc, num_regs, args, rets } => {
                let (arg_ops, num_regs) = (image.operands(args), num_regs as usize);
                let Warp { regs, ctl, .. } = &mut self.warps[w];
                for l in lanes(mask) {
                    // A zeroed window at the bump pointer; arguments
                    // evaluate in the caller window, which stays intact
                    // under the callee's.
                    let (caller, callee) = (ctl.bases[l], ctl.tops[l]);
                    regs.grow(callee + num_regs);
                    regs.fill_rows(callee, num_regs, Value::default(), 1 << l);
                    for (i, a) in arg_ops.iter().enumerate() {
                        regs.set(callee + i, l, Src::of(*a, 1).at(caller).get(regs, l));
                    }
                }
                // The return lands after the call.
                ctl.call(mask, pc + 1, entry_pc as usize, rets, num_regs);
                None
            }
            DecodedInst::UnresolvedCall { name } => {
                return Err(SimError::UnresolvedCall {
                    at: at(mask.trailing_zeros() as usize),
                    callee: image.callee_names[name as usize].clone(),
                });
            }
            DecodedInst::Barrier(op) => {
                self.metrics.barrier_ops += u64::from(mask.count_ones());
                self.exec_barrier(w, mask, op).then_some(pc + 1)
            }
            DecodedInst::Skip => Some(pc + 1),
            DecodedInst::Jump { target } => Some(target as usize),
            DecodedInst::Branch { cond, then_pc, else_pc } => {
                let (Warp { regs, ctl, .. }, cond) = (&mut self.warps[w], Src::of(cond, 1));
                let groups = by_base(ctl, mask, &mut self.stats.split_base_issues);
                let taken = groups.fold(0, |t, (base, live)| t | cond.at(base).truthy(regs, live));
                let not_taken = mask & !taken;
                if taken == 0 || not_taken == 0 {
                    Some(if taken != 0 { then_pc } else { else_pc } as usize)
                } else {
                    for l in lanes(mask) {
                        ctl.pcs[l] = if taken >> l & 1 != 0 { then_pc } else { else_pc } as usize;
                    }
                    // Park the divergence for the IPDOM post-issue hook
                    // (the stack push happens after the hot borrows end).
                    if matches!(self.cfg.recon, ReconvergenceModel::IpdomStack) {
                        ctl.branch = Some((pc, taken, not_taken));
                    }
                    let o = image.origin[pc];
                    let (func, block, inst) = (o.func, o.block, o.inst as usize);
                    let diverge =
                        JournalKind::BranchDiverge { func, block, inst, taken, not_taken };
                    self.obs.event(self.cycle, w, diverge);
                    None
                }
            }
            DecodedInst::Return { values } => {
                let value_ops = image.operands(values);
                let Machine { warps, obs, cycle, .. } = self;
                let Warp { regs, ctl, .. } = &mut warps[w];
                for l in lanes(mask) {
                    // The values move from the callee window to the
                    // caller's; a lane in its kernel frame exits instead
                    // (the verifier rejects that statically, but stay
                    // safe at runtime).
                    let Some(d) = ctl.depths[l].checked_sub(1) else { continue };
                    let (callee, caller) = (ctl.top(l), ctl.frame(l, d).base);
                    for (r, v) in image.regs(callee.ret_regs).iter().zip(value_ops) {
                        let value = Src::of(*v, 1).at(callee.base).get(regs, l);
                        regs.set(caller + r.index(), l, value);
                    }
                }
                ctl.ret(mask, &mut |k| obs.event(*cycle, w, k));
                None
            }
            DecodedInst::Exit => {
                let Machine { warps, obs, cycle, .. } = self;
                warps[w].ctl.exit(mask, &mut |k| obs.event(*cycle, w, k));
                None
            }
        };
        Ok((cost, next))
    }

    /// The shared load/store path of the instruction at `pc`: evaluates
    /// per-lane addresses, performs the access, and (for global space)
    /// folds the coalescing/cache cost model over the touched addresses,
    /// recording a memory-hierarchy stall. Leaves the lanes at their pc,
    /// like every arm of [`Machine::exec`].
    fn access(
        &mut self,
        w: usize,
        pc: usize,
        mask: u64,
        space: MemSpace,
        addr: Operand,
        op: MemOp,
    ) -> Result<u32, LaneFault> {
        let (cfg, image, now) = (self.cfg, self.image, self.cycle);
        let Machine { warps, global, scratch, metrics, mshrs, obs, costs, .. } = self;
        let Warp { regs, ctl, local, mem_tags, .. } = &mut warps[w];
        let addrs = &mut scratch.addrs;
        addrs.clear();
        let (addr, reg) = (Src::of(addr, 1), op.reg(1));
        // Global memory is one slot wide; local memory has one per lane.
        let (mem, per_lane) = match space {
            MemSpace::Global => (global, false),
            MemSpace::Local => (local, true),
        };
        for l in lanes(mask) {
            let base = ctl.bases[l];
            let a = addr.at(base).get(regs, l).as_i64();
            addrs.push(a);
            let Some(m) = cell(a, mem.rows()) else {
                return Err(LaneFault::Oob { lane: l, addr: a, size: mem.rows(), space });
            };
            let ms = if per_lane { l } else { 0 };
            move_cell(regs, (reg.at(base), l), mem, (m, ms), op.is_load());
        }
        let mut cost = costs[pc];
        if space == MemSpace::Global {
            cost = if let Some(hier) = &cfg.mem {
                // Hierarchy walk at the issue cycle: tag fills and MSHR
                // allocation commit here.
                let out = crate::mem::commit(
                    hier,
                    mem_tags,
                    mshrs,
                    &mut scratch.mem,
                    &scratch.addrs,
                    now,
                );
                metrics.mem.record(&out);
                obs.mem(now, w, image.origin[pc], &out);
                out.cost
            } else {
                let lat = &cfg.latency;
                let segs = lat.segments_in(&scratch.addrs, &mut scratch.lines);
                cost + lat.mem_segment * segs.saturating_sub(1)
            };
            if !op.is_load() {
                // Stores write through: cost like a load, but the
                // touched lines are invalidated in every warp (they
                // now differ from any cached copy).
                Self::invalidate_lines(cfg, warps, &scratch.addrs);
            }
        }
        Ok(cost)
    }

    /// Drops the lines covering `addrs` from every warp's tag state
    /// (stores and atomics write through).
    fn invalidate_lines(cfg: &SimConfig, warps: &mut [Warp], addrs: &[i64]) {
        if let Some(hier) = &cfg.mem {
            for warp in warps.iter_mut() {
                crate::mem::invalidate(hier, &mut warp.mem_tags, addrs);
            }
        }
    }
}

/// The decoded engine's side of the rounds ([`crate::recon::step`]): it
/// batches and leaves pick hints under every model, and journals the
/// merges its picks make.
impl Rounds for Machine<'_> {
    type Error = SimError;

    fn cfg(&self) -> &SimConfig {
        self.cfg
    }

    fn warps(&self) -> usize {
        self.warps.len()
    }

    fn clock(&mut self) -> &mut u64 {
        &mut self.cycle
    }

    fn plane(&mut self, w: usize) -> (&mut WarpCtl, &mut Pick, &mut ReconStats, &mut RoundBufs) {
        let Warp { ctl, pick, .. } = &mut self.warps[w];
        (ctl, pick, &mut self.metrics.recon, &mut self.scratch.round)
    }

    fn engine(&mut self) -> &mut EngineStats {
        &mut self.stats
    }

    /// Issues the picked `(pc, mask)` of warp `w` and runs the group ahead
    /// ([`run_ahead`](crate::sched::run_ahead)), leaving [`Pick::hint`]
    /// when it stays intact. Tracing and journaling disable batching
    /// ([`Observer::stamps_issues`]) and with it the hints, so a traced
    /// run is the unbatched, unhinted reference.
    #[inline(always)]
    fn issue_round(&mut self, w: usize, pc: usize, mask: u64) -> Result<u64, SimError> {
        #[cfg(debug_assertions)]
        self.warps[w].ctl.check_frames(self.image);
        let last = std::mem::replace(&mut self.warps[w].ctl.last_lanes, mask);
        self.obs.pick(self.cycle, w, self.image.origin[pc], last, mask);
        let busy = self.cycle + u64::from(self.issue(w, pc, mask)?.max(1));
        // A stack that moved (pushed, parked or popped) changed what the
        // next pick chooses among.
        let Machine { warps, image, metrics, cfg, .. } = self;
        let stack_moved = matches!(cfg.recon, ReconvergenceModel::IpdomStack)
            && warps[w].ctl.ipdom_post_issue(image, (pc, mask), &mut metrics.recon);
        if stack_moved || self.obs.stamps_issues() {
            return Ok(busy);
        }
        let (cfg, image, issue) =
            (self.cfg, self.image, (w, pc, mask, self.warps[w].ctl.schedulable()));
        let (run, intact) = crate::sched::run_ahead(&mut WarpRun(self, w), cfg, image, issue)?;
        self.stats.batched_issues += run.issues;
        self.warps[w].pick.hint = intact.then_some((run.at, mask));
        Ok(busy + run.weight)
    }

    /// The deadlock report of warp `w` ([`WarpCtl::deadlock`]), journaled.
    fn deadlock(&mut self, w: usize) -> SimError {
        self.obs.event(self.cycle, w, JournalKind::DeadlockOnset);
        self.warps[w].ctl.deadlock(self.image, w, self.cycle, self.cfg.recon)
    }

    fn timeout(&mut self) -> SimError {
        SimError::MaxCyclesExceeded { limit: self.cfg.max_cycles }
    }
}

/// The decoded engine's side of the straight-line batcher for warp `.1`:
/// [`Machine::exec`] moves the data after [`batch_fault_free`], and the
/// per-block profile stays per issue.
struct WarpRun<'a, 'm>(&'a mut Machine<'m>, usize);

impl Batcher for WarpRun<'_, '_> {
    type Error = SimError;

    #[inline(always)]
    fn state(&mut self) -> (&mut WarpCtl, &[usize], &mut Metrics) {
        let Warp { ctl, pick, .. } = &mut self.0.warps[self.1];
        (ctl, &pick.other_pcs, &mut self.0.metrics)
    }

    #[inline(always)]
    fn issue(&mut self, mask: u64, inst: &DecodedInst, run: &Run) -> Issued<SimError> {
        let (m, w, pc) = (&mut *self.0, self.1, run.at);
        if !batch_fault_free(&m.warps[w], mask, inst) {
            return Ok(None);
        }
        let (cost, next) = m.exec(w, pc, mask)?;
        m.obs.batched(m.image.origin[pc], mask, cost);
        Ok(Some((cost, next)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::alloc_count;
    use crate::config::SchedulerPolicy;
    use crate::error::ReconDump;
    use crate::machine::Launch;
    use simt_ir::parse_and_link;

    /// A deliberately busy kernel: divergent branches, a loop, global
    /// loads/stores, an atomic, a depth-2 device-function call chain,
    /// RNG, a vote, and convergence barriers — every hot-loop shape at
    /// once.
    const STEADY_KERNEL: &str = "\
kernel @k(params=1, regs=8, barriers=1, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = rem %r1, 4
  join b0
  brdiv %r2, bb1, bb2
bb1:
  %r3 = rng.unit
  %r4 = mul %r1, 3
  %r5 = load global[%r4]
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
  call @g(%r2) -> (%r3)
  ret %r3
}
device @g(params=1, regs=2, barriers=0, entry=bb0) {
bb0:
  %r1 = mul %r0, 2
  ret %r1
}
";

    /// After warm-up, `step()` does not touch the heap — under the
    /// barrier file and under the hardware models, whose split list
    /// (forks push, fusions and exits remove) and reconvergence stack
    /// must stop allocating at their high-water marks, and whose hinted
    /// rounds must allocate nothing. Counts allocations via the test
    /// binary's counting global allocator across a window of
    /// steady-state steps.
    #[test]
    fn step_is_allocation_free_in_steady_state() {
        let module = parse_and_link(STEADY_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        for recon in [
            ReconvergenceModel::BarrierFile,
            ReconvergenceModel::WarpSplit { window: 4, compact: true },
            ReconvergenceModel::IpdomStack,
        ] {
            let cfg = SimConfig { recon, ..SimConfig::default() };
            let at = recon.spec();
            let launch = steady_launch(400);
            let mut m = Machine::new(&image, &cfg, &launch).expect("machine builds");

            // Warm-up: grow every scratch buffer, the register arena and
            // frame stacks (to the call chain's depth), the split list or
            // reconvergence stack, and the per-warp busy schedule to
            // their high-water marks.
            for _ in 0..500 {
                if m.step().expect("warm-up step") {
                    panic!("kernel finished during warm-up under {at}; enlarge the loop bound");
                }
            }

            let mut steps = 0u32;
            let before = m.stats;
            let allocs = alloc_count::allocations_during(|| {
                for _ in 0..2000 {
                    if m.step().expect("steady-state step") {
                        break;
                    }
                    steps += 1;
                }
            });
            assert!(
                steps >= 1000,
                "kernel too short to observe steady state ({steps} steps, {at})"
            );
            assert_eq!(allocs, 0, "step allocated {allocs} times over {steps} steps under {at}");
            assert!(
                m.stats.hinted_rounds > before.hinted_rounds
                    && m.stats.batched_issues > before.batched_issues,
                "the window exercised no hinted round under {at}: {:?}",
                m.stats
            );

            // And the run still completes correctly afterwards.
            while !m.step().expect("tail step") {}
            let out = m.into_output();
            assert!(out.metrics.cycles > 0);
        }
    }

    /// Runs `src` at warp widths 1, 5, 32 and 64 under every policy and
    /// demands the oracle's result bit for bit: final memory by payload
    /// and type (so `-0.0` ≠ `0.0` and a NaN equals itself), metrics, or
    /// the same error. Returns each run's width and result.
    fn against_oracle(
        src: &str,
        launch: impl Fn(usize) -> Launch,
    ) -> Vec<(usize, Result<SimOutput, SimError>)> {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let bits = |mem: &[Value]| mem.iter().map(|&v| encode(v)).collect::<Vec<_>>();
        let mut runs = Vec::new();
        for warp_width in [1, 5, 32, 64] {
            let launch = launch(warp_width);
            for scheduler in SchedulerPolicy::ALL {
                let cfg = SimConfig { warp_width, scheduler, ..SimConfig::default() };
                let at = format!("width {warp_width} {scheduler:?}");
                let got = run_image(&image, &cfg, &launch);
                match (&got, crate::reference::run_reference(&module, &cfg, &launch)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(bits(&got.global_mem), bits(&want.global_mem), "{at}");
                        assert_eq!(got.metrics, want.metrics, "{at}");
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{at}"),
                    (got, want) => {
                        panic!("{at}: engines disagree: {:?} vs {want:?}", got.as_ref().err())
                    }
                }
                runs.push((warp_width, got));
            }
        }
        runs
    }

    /// `mem` cells of `init`, and `args`, for kernel `@k` on two warps.
    pub(crate) fn launch_of(args: Vec<Value>, mem: usize, init: Value) -> Launch {
        Launch {
            kernel: "k".into(),
            num_warps: 2,
            args,
            global_mem: vec![init; mem],
            local_mem_size: 2,
            seed: 9,
        }
    }

    /// Operand types that depend on the lane: `sel` on lane parity puts
    /// `0.5` in odd lanes and `3` in even ones, and the mixed register
    /// then feeds arithmetic, a compare, a divisor, a bitwise op on a
    /// value derived from it, global and local memory, a call argument
    /// and a return value, a vote, a `sel` and a branch condition (`sub
    /// 3` is an integer zero, falsy, in even lanes and `-2.5`, truthy, in
    /// odd ones).
    pub(crate) const MIXED_KERNEL: &str = "\
kernel @k(params=0, regs=16, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = special.lane
  %r2 = rem %r1, 2
  %r3 = sel %r2, 0.5, 3
  %r4 = add %r3, %r1
  %r5 = lt %r3, 1
  %r6 = div 7, %r3
  %r7 = and %r5, %r1
  %r8 = mul %r0, 8
  store global[%r8], %r4
  %r9 = add %r8, 1
  store global[%r9], %r6
  %r10 = load global[%r8]
  store local[1], %r10
  %r11 = load local[1]
  call @f(%r11, %r3) -> (%r12, %r13)
  %r14 = sub %r3, 3
  %r15 = vote %r14
  %r7 = sel %r14, %r7, %r6
  brdiv %r14, bb1, bb2
bb1:
  %r12 = add %r12, %r15
  jmp bb3
bb2:
  %r13 = mul %r13, 2
  jmp bb3
bb3:
  %r9 = add %r8, 2
  store global[%r9], %r12
  %r9 = add %r8, 3
  store global[%r9], %r13
  %r9 = add %r8, 4
  store global[%r9], %r7
  %r9 = add %r8, 5
  store global[%r9], %r5
  exit
}
device @f(params=2, regs=3, barriers=0, entry=bb0) {
bb0:
  %r2 = mul %r0, %r1
  ret %r2, %r1
}
";

    /// The decoded engine keeps a lane's type through every data path of
    /// [`MIXED_KERNEL`], bit-identical to the oracle, and the mixed rows
    /// take the loop that reads each lane's type bit.
    #[test]
    fn lane_dependent_operand_types_match_the_oracle() {
        let runs = against_oracle(MIXED_KERNEL, |w| launch_of(vec![], 16 * w, Value::I64(-1)));
        for (width, out) in runs {
            let out = out.expect("the kernel does not fault");
            let mem = &out.global_mem;
            // Lane 1 (thread 1): 0.5 + 1, 7 / 0.5, the call's product
            // 1.5 * 0.5 plus the vote (every odd lane), 0.5 returned.
            if width > 1 {
                let odd = (width / 2) as f64;
                assert_eq!(
                    mem[8..12],
                    [Value::F64(1.5), Value::F64(14.0), Value::F64(0.75 + odd), Value::F64(0.5)]
                );
                assert!(out.engine.mixed_rows > 0, "width {width}: {:?}", out.engine);
            } else {
                assert_eq!(out.engine.mixed_rows, 0, "one lane cannot mix: {:?}", out.engine);
            }
            // Lane 0: 3 + 0, 7 / 3, then 9 (the product) and 3 doubled.
            assert_eq!(mem[..4], [Value::I64(3), Value::I64(2), Value::I64(9), Value::I64(6)]);
        }
    }

    /// A NaN payload and `-0.0` in the kernel's two arguments, moved
    /// through `mov`, `sel`, global and local memory, a call and its
    /// return, and branch conditions (`-0.0` is falsy, the NaN truthy).
    pub(crate) const PAYLOAD_KERNEL: &str = "\
kernel @k(params=2, regs=12, barriers=0, entry=bb0) {
bb0:
  %r2 = special.tid
  %r3 = special.lane
  %r4 = rem %r3, 2
  %r5 = mov %r0
  %r6 = sel %r4, %r0, %r1
  %r7 = mul %r2, 6
  store global[%r7], %r5
  %r8 = add %r7, 1
  store global[%r8], %r6
  %r9 = load global[%r8]
  store local[0], %r9
  %r9 = load local[0]
  call @id(%r9, %r1) -> (%r10, %r11)
  %r8 = add %r7, 2
  store global[%r8], %r10
  %r8 = add %r7, 3
  store global[%r8], %r11
  brdiv %r1, bb1, bb2
bb1:
  %r8 = add %r7, 4
  store global[%r8], 1
  jmp bb3
bb2:
  brdiv %r6, bb4, bb3
bb4:
  %r8 = add %r7, 5
  store global[%r8], %r6
  jmp bb3
bb3:
  exit
}
device @id(params=2, regs=2, barriers=0, entry=bb0) {
bb0:
  ret %r0, %r1
}
";

    /// NaN payloads and `-0.0` survive every move bit-exact, and branch
    /// conditions read them by type, not by payload.
    #[test]
    fn nan_payloads_and_negative_zero_survive_bit_exact() {
        let (nan, neg) = (f64::from_bits(0x7ff8_0000_dead_beef), -0.0f64);
        let args = vec![Value::F64(nan), Value::F64(neg)];
        let runs =
            against_oracle(PAYLOAD_KERNEL, |w| launch_of(args.clone(), 12 * w, Value::I64(-1)));
        for (width, out) in runs {
            let mem: Vec<_> =
                out.expect("no fault").global_mem.iter().map(|&v| encode(v)).collect();
            let (nan, neg, untouched) =
                ((nan.to_bits(), true), (neg.to_bits(), true), encode(Value::I64(-1)));
            for t in 0..2 * width {
                let sel = if t % width % 2 == 1 { nan } else { neg };
                let taken = if sel == nan { nan } else { untouched };
                assert_eq!(
                    mem[6 * t..6 * t + 6],
                    [nan, sel, sel, neg, untouched, taken],
                    "thread {t}"
                );
            }
        }
    }

    /// A faultable op after a straight-line run on warp 0, where lanes of
    /// the upper half (lane 0 at width 1) hold `bad` and the others
    /// `good`; warp 1 reads out of bounds a few issues in.
    pub(crate) fn fault_kernel(op: &str, bad: &str, good: &str) -> String {
        format!(
            "kernel @k(params=0, regs=8, barriers=0, entry=bb0) {{\n\
             bb0:\n  %r0 = special.lane\n  %r1 = special.warpwidth\n  %r2 = mul %r0, 2\n\
             \x20 %r2 = add %r2, 1\n  %r3 = ge %r2, %r1\n  %r4 = special.warp\n  br %r4, bb2, bb1\n\
             bb1:\n  %r5 = sel %r3, {bad}, {good}\n  %r6 = add %r0, 1\n  %r6 = mul %r6, 3\n\
             \x20 %r6 = sub %r6, 2\n  %r6 = xor %r6, 5\n  %r7 = {op} %r6, %r5\n\
             \x20 store global[%r0], %r7\n  exit\n\
             bb2:\n  %r5 = load global[-1]\n  exit\n}}\n"
        )
    }

    /// Bitwise ops on a float and integer division by zero fault at the
    /// first faulting lane with the oracle's exact message, and the
    /// straight-line batcher never runs ahead through such an op: with a
    /// second warp faulting earlier in simulated time, that earlier
    /// fault is the one reported.
    #[test]
    fn faults_stop_at_the_first_lane_and_are_never_batched() {
        let cases = [
            ("and", "1.5", "1", "bitwise `and` applied to a float"),
            ("div", "0", "2.5", "integer division by zero"),
            ("rem", "0", "2.5", "integer remainder by zero"),
        ];
        for (op, bad, good, message) in cases {
            let src = fault_kernel(op, bad, good);
            let one_warp = |w| Launch { num_warps: 1, ..launch_of(vec![], w, Value::I64(0)) };
            for (width, out) in against_oracle(&src, one_warp) {
                match out.expect_err("warp 0 faults") {
                    SimError::Arithmetic { at, message: m } => {
                        assert_eq!((at.warp, at.lane, m.as_str()), (0, width / 2, message), "{op}");
                    }
                    other => panic!("{op}: expected an arithmetic fault, got {other}"),
                }
            }
            let two_warps = |w| launch_of(vec![], w, Value::I64(0));
            for (_, out) in against_oracle(&src, two_warps) {
                let e = out.expect_err("warp 1 faults");
                assert!(matches!(e, SimError::MemoryFault { at, .. } if at.warp == 1), "{op}: {e}");
            }
        }
    }

    /// `atomic_add` at addresses that differ by lane and by seed: a
    /// lane-typed value (`0.5` in odd lanes, `3` in even ones) into the
    /// alternating integer (even) and float (odd) cells `0..9`, at
    /// `tid % 8` and then one cell further in the seeds whose draw is odd;
    /// the NaN argument into cell 10 by every lane; and, where the draw is
    /// 3 mod 4, the middle lane's second add out of range. Each thread
    /// stores its three old values at `16 + 3 * tid`.
    pub(crate) const ATOMIC_KERNEL: &str = "\
kernel @k(params=1, regs=14, barriers=0, entry=bb0) {
bb0:
  %r1 = special.tid
  %r2 = special.lane
  %r3 = rem %r2, 2
  %r4 = sel %r3, 0.5, 3
  %r5 = rem %r1, 8
  %r6 = atomic_add [%r5], %r4
  %r7 = atomic_add [10], %r0
  %r8 = rng.u63
  %r9 = rem %r8, 2
  %r9 = add %r5, %r9
  %r8 = rem %r8, 4
  %r8 = eq %r8, 3
  %r10 = special.warpwidth
  %r10 = div %r10, 2
  %r10 = eq %r2, %r10
  %r10 = and %r10, %r8
  %r10 = mul %r10, 100000
  %r9 = add %r9, %r10
  %r11 = atomic_add [%r9], %r4
  %r12 = mul %r1, 3
  %r12 = add %r12, 16
  store global[%r12], %r6
  %r12 = add %r12, 1
  store global[%r12], %r7
  %r12 = add %r12, 1
  store global[%r12], %r11
  exit
}
";

    /// [`ATOMIC_KERNEL`]'s launch on two warps of `width` lanes.
    pub(crate) fn atomic_launch(width: usize, seed: u64) -> Launch {
        let cell = |i| match i {
            i if i % 2 == 1 => Value::F64(i as f64 + 0.25),
            i => Value::I64(i as i64),
        };
        let nan = Value::F64(f64::from_bits(0x7ff8_0000_dead_beef));
        let outs = std::iter::repeat_n(Value::I64(-1), 6 * width);
        Launch {
            args: vec![nan],
            global_mem: (0..16).map(cell).chain(outs).collect(),
            seed,
            ..launch_of(vec![], 0, Value::I64(0))
        }
    }

    /// [`ATOMIC_KERNEL`] matches the oracle; the NaN survives the adds and
    /// an out-of-range middle lane faults the run there.
    #[test]
    fn atomics_at_lane_and_seed_dependent_addresses_match_the_oracle() {
        let (mut ok, mut faulted) = (0, 0);
        for seed in 0..6 {
            for (width, out) in against_oracle(ATOMIC_KERNEL, |w| atomic_launch(w, seed)) {
                match out {
                    Ok(out) => {
                        ok += 1;
                        assert!(matches!(out.global_mem[10], Value::F64(x) if x.is_nan()));
                    }
                    Err(SimError::MemoryFault { at, .. }) => {
                        faulted += 1;
                        assert_eq!(at.lane, width / 2, "seed {seed} width {width}");
                    }
                    Err(e) => panic!("seed {seed} width {width}: {e}"),
                }
            }
        }
        assert!(ok > 0 && faulted > 0, "{ok} clean runs, {faulted} faults");
    }

    /// Runs `src` profiled on two warps of four lanes: batched, as its
    /// traced twin (tracing turns batches and hints off) and, under the
    /// barrier file (the only model the oracle has), on the oracle.
    /// Metrics, per-block profiles and final memory must agree. Returns
    /// the batched run, whose [`EngineStats`] say where its batches
    /// stopped.
    fn batched_against_unbatched(
        src: &str,
        recon: ReconvergenceModel,
        scheduler: SchedulerPolicy,
    ) -> SimOutput {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let cfg =
            SimConfig { warp_width: 4, recon, scheduler, profile: true, ..SimConfig::default() };
        let launch = launch_of(vec![], 16, Value::I64(0));
        let at = recon.spec();
        let got = run_image(&image, &cfg, &launch).expect("batched run");
        let traced = SimConfig { trace: true, ..cfg.clone() };
        let mut twins = vec![("traced", run_image(&image, &traced, &launch).expect("traced run"))];
        assert_eq!(twins[0].1.engine.batched_issues, 0, "the traced twin batched under {at}");
        if recon == ReconvergenceModel::BarrierFile {
            let oracle = crate::reference::run_reference(&module, &cfg, &launch);
            twins.push(("oracle", oracle.expect("oracle run")));
        }
        for (twin, want) in twins {
            assert_eq!(got.metrics, want.metrics, "{twin} under {at}");
            assert_eq!(got.profile, want.profile, "{twin} under {at}");
            assert_eq!(got.global_mem, want.global_mem, "{twin} under {at}");
        }
        got
    }

    /// The three models, under Greedy.
    const MODELS: [ReconvergenceModel; 3] = [
        ReconvergenceModel::BarrierFile,
        ReconvergenceModel::IpdomStack,
        ReconvergenceModel::WarpSplit { window: 4, compact: true },
    ];

    /// 128 `add`s in a row: the first batch runs `BATCH_LIMIT` issues past
    /// its round's own and leaves its hint, so the next round skips the
    /// pick.
    #[test]
    fn a_batch_stops_at_the_limit_and_leaves_its_hint() {
        let adds = "  %r1 = add %r1, 3\n".repeat(128);
        let src = format!(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {{\nbb0:\n  %r0 = special.tid\n\
             {adds}  store global[%r0], %r1\n  exit\n}}\n"
        );
        for recon in MODELS {
            let out = batched_against_unbatched(&src, recon, SchedulerPolicy::Greedy);
            // Per warp: `special` and 64 `add`s, then `add` and the 63
            // left, the store and the exit on hints, and the round that
            // finds the warp done.
            let e = out.engine;
            let at = recon.spec();
            assert_eq!((e.rounds, e.hinted_rounds, e.batched_issues), (10, 6, 254), "{at}: {e:?}");
            assert_eq!(out.global_mem[..8], [Value::I64(384); 8], "{at}");
        }
    }

    /// A divergent branch ends the batch that issued it; the IPDOM hook
    /// still turns it into stack pushes.
    #[test]
    fn a_batch_ends_at_a_divergent_branch() {
        let src = "\
kernel @k(params=0, regs=3, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  %r2 = add %r0, 5
  brdiv %r1, bb1, bb2
bb1:
  %r2 = mul %r2, 3
  jmp bb3
bb2:
  %r2 = sub %r2, 1
  jmp bb3
bb3:
  store global[%r0], %r2
  exit
}
";
        // Per warp, `rem`, `add` and `brdiv` batch behind `special`; then
        // each arm's `jmp` batches behind its first issue, except under
        // warp-split, where neither arm is the warp's only frontier.
        for (recon, batched) in MODELS.into_iter().zip([10, 10, 6]) {
            let out = batched_against_unbatched(src, recon, SchedulerPolicy::Greedy);
            let at = recon.spec();
            assert_eq!(out.engine.batched_issues, batched, "{at}: {:?}", out.engine);
            assert_eq!(out.global_mem[..4].to_vec(), [4, 18, 6, 24].map(Value::I64), "{at}");
            if recon == ReconvergenceModel::IpdomStack {
                assert_eq!(out.metrics.recon.stack_pushes, 4, "one split per warp");
            }
        }
    }

    /// A batch jumps from a plain block into a region-of-interest block
    /// and out again: the ROI share of its cost is counted per issue.
    #[test]
    fn a_batch_crosses_roi_block_boundaries() {
        let src = "\
kernel @k(params=0, regs=2, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = mul %r0, 2
  jmp bb1
bb1 (roi):
  work 7
  %r1 = add %r1, 1
  jmp bb2
bb2:
  %r1 = add %r1, 4
  store global[%r0], %r1
  exit
}
";
        for recon in MODELS {
            let out = batched_against_unbatched(src, recon, SchedulerPolicy::Greedy);
            let (m, at) = (&out.metrics, recon.spec());
            assert_eq!(out.engine.batched_issues, 2 * 6, "{at}: one batch per warp");
            assert!(0 < m.roi_issues && m.roi_issues < m.issue_weight, "{at}: {m:?}");
        }
    }

    /// `join` and `arrived` run inside one batch; `arrived` reads the
    /// participants the batched `join` added (the IPDOM stack has no
    /// barrier file: it reads 0).
    #[test]
    fn join_then_arrived_inside_one_batch() {
        let src = "\
kernel @k(params=0, regs=3, barriers=1, entry=bb0) {
bb0:
  %r0 = special.tid
  join b0
  %r1 = arrived b0
  %r2 = add %r1, 100
  cancel b0
  store global[%r0], %r2
  exit
}
";
        for recon in MODELS {
            let out = batched_against_unbatched(src, recon, SchedulerPolicy::Greedy);
            let at = recon.spec();
            assert_eq!(out.engine.batched_issues, 2 * 3, "{at}: {:?}", out.engine);
            let arrived = if recon == ReconvergenceModel::IpdomStack { 0 } else { 4 };
            assert_eq!(out.global_mem[..8], [Value::I64(100 + arrived); 8], "{at}");
        }
    }

    /// Under Greedy a divergent group batches, but stops before its pc
    /// reaches the other group's: the next round merges the two there.
    #[test]
    fn a_greedy_batch_stops_before_a_merge() {
        let src = "\
kernel @k(params=0, regs=3, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  br %r1, bb1, bb2
bb1:
  %r2 = mul %r0, 3
  %r2 = add %r2, 1
  jmp bb2
bb2:
  %r2 = add %r2, 7
  store global[%r0], %r2
  exit
}
";
        let out = batched_against_unbatched(
            src,
            ReconvergenceModel::BarrierFile,
            SchedulerPolicy::Greedy,
        );
        // Per warp: `special`, `rem`, `br`; the odd lanes' `mul`, `add`,
        // `jmp`, stopped by the guard without a hint; the merged `add`;
        // the store and the exit on hints; the round that finds it done.
        let e = out.engine;
        assert_eq!((e.rounds, e.hinted_rounds, e.batched_issues), (12, 4, 8), "{e:?}");
        let profile = out.profile.expect("profiled");
        let merged = profile.block(simt_ir::FuncId(0), simt_ir::BlockId(2));
        assert_eq!((merged.issues, merged.active_lanes), (2 * 3, 2 * 3 * 4), "bb2 runs merged");
    }

    /// Odd lanes run a nested call chain (`@f` → `@g`, each returning
    /// two values into its caller's window) while even lanes stay in the
    /// kernel frame, then push `@g` over the arena rows the odd lanes
    /// are using. `%r7` is a float in odd lanes and an integer in even
    /// ones, so the windows mix types too. The sum of every window's
    /// values is stored at the end.
    const ARENA_KERNEL: &str = "\
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  %r6 = sel %r1, 100.5, 100
  %r7 = add %r0, %r6
  brdiv %r1, bb1, bb2
bb1:
  call @f(%r0, %r7) -> (%r2, %r3)
  jmp bb3
bb2:
  %r2 = mul %r0, 5
  %r3 = sub %r7, 1
  jmp bb3
bb3:
  call @g(%r2) -> (%r4, %r5)
  %r2 = add %r2, %r3
  %r4 = add %r4, %r5
  %r2 = add %r2, %r4
  %r2 = add %r2, %r7
  store global[%r0], %r2
  exit
}
device @f(params=2, regs=5, barriers=0, entry=bb0) {
bb0:
  %r2 = add %r0, %r1
  call @g(%r2) -> (%r3, %r4)
  %r2 = add %r2, %r4
  ret %r3, %r2
}
device @g(params=1, regs=3, barriers=0, entry=bb0) {
bb0:
  %r1 = mul %r0, 3
  %r2 = add %r0, 11
  ret %r1, %r2
}
";

    /// Lanes at different call depths reuse the same arena rows without
    /// clobbering each other's payloads or type bits, and multi-value
    /// returns land in the caller's window — at warp widths 1, 5, 32 and
    /// 64, under every policy (they interleave the two arms
    /// differently), bit-identical to the tree-walking oracle. Lanes at
    /// two depths meet at one pc of `@g`, where the data arms run one
    /// row op per frame base. Debug builds also run `WarpCtl::check_frames`
    /// at every pick.
    #[test]
    fn divergent_call_depths_share_the_arena_safely() {
        let runs = against_oracle(ARENA_KERNEL, |w| launch_of(vec![], 2 * w, Value::I64(-1)));
        let mut split = 0;
        for (_, out) in runs {
            let out = out.expect("decoded run");
            // Thread 1 went through the nested chain: f(1, 101.5) calls
            // g(102.5) -> (307.5, 113.5) and returns (307.5, 216), then
            // g(307.5) -> (922.5, 318.5): the sum plus 101.5. Thread 0
            // stays in integers: 0 + 99 + 0 + 11 + 100.
            assert_eq!(out.global_mem[..2], [Value::I64(210), Value::F64(1866.0)]);
            split += out.engine.split_base_issues;
        }
        assert!(split > 0, "no issue met lanes at two call depths");
    }

    /// A divergent branch whose arms reconverge at `bb3`, with a
    /// `__syncthreads` inside one arm — legal under Volta's independent
    /// thread scheduling, a classic deadlock under stack reconvergence.
    const DIVERGENT_SYNC_KERNEL: &str = "\
kernel @k(params=0, regs=2, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rem %r0, 2
  brdiv %r1, bb1, bb2
bb1:
  syncthreads
  jmp bb3
bb2:
  jmp bb3
bb3:
  store global[%r0], %r1
  exit
}
";

    fn steady_launch(iters: i64) -> Launch {
        Launch {
            kernel: "k".into(),
            num_warps: 2,
            args: vec![Value::I64(iters)],
            global_mem: vec![Value::I64(7); 256],
            local_mem_size: 0,
            seed: 9,
        }
    }

    /// All three reconvergence models execute the same lane work, so
    /// final memory agrees; only timing and the model's own counters
    /// differ. The barrier-file model must keep its counters all-zero
    /// (the bit-identity guarantee), the hardware models must show
    /// their machinery actually engaged on a divergent kernel.
    #[test]
    fn hardware_models_reach_the_same_memory() {
        let module = parse_and_link(STEADY_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let launch = steady_launch(12);
        let base = run_image(&image, &SimConfig::default(), &launch).expect("barrier-file run");
        assert!(
            crate::counters::is_zero(&base.metrics.recon),
            "barrier-file recon counters must stay zero"
        );

        let cfg = SimConfig { recon: ReconvergenceModel::IpdomStack, ..SimConfig::default() };
        let stack = run_image(&image, &cfg, &launch).expect("ipdom run");
        assert_eq!(stack.global_mem, base.global_mem);
        assert!(stack.metrics.recon.stack_pushes > 0, "divergence must push");
        assert_eq!(stack.metrics.recon.stack_pushes, stack.metrics.recon.stack_pops);
        assert!(stack.metrics.recon.stack_max_depth >= 2);

        for (window, compact) in [(0, false), (4, true)] {
            let cfg = SimConfig {
                recon: ReconvergenceModel::WarpSplit { window, compact },
                ..SimConfig::default()
            };
            let split = run_image(&image, &cfg, &launch).expect("warp-split run");
            assert_eq!(split.global_mem, base.global_mem, "window={window} compact={compact}");
            assert!(split.metrics.recon.splits > 0, "divergence must fork a split");
            assert!(split.metrics.recon.fusions > 0, "reconvergence must re-fuse");
        }
    }

    /// The warp-split model preserves per-warp forward progress, so a
    /// sync inside a divergent arm still completes — like Volta, unlike
    /// the stack.
    #[test]
    fn warp_split_keeps_forward_progress_through_divergent_sync() {
        let module = parse_and_link(DIVERGENT_SYNC_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let mut launch = steady_launch(0);
        launch.args.clear();
        launch.num_warps = 1;
        let base = run_image(&image, &SimConfig::default(), &launch).expect("barrier-file run");
        let cfg = SimConfig {
            recon: ReconvergenceModel::WarpSplit { window: 2, compact: false },
            ..SimConfig::default()
        };
        let split = run_image(&image, &cfg, &launch).expect("warp-split run");
        assert_eq!(split.global_mem, base.global_mem);
    }

    /// The stack model serializes the taken arm first; its `syncthreads`
    /// can never be satisfied while the not-taken lanes are parked below
    /// the top-of-stack — and the deadlock report must carry the stack,
    /// not an empty barrier dump.
    #[test]
    fn ipdom_stack_deadlocks_where_volta_reconverges() {
        let module = parse_and_link(DIVERGENT_SYNC_KERNEL).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let mut launch = steady_launch(0);
        launch.args.clear();
        launch.num_warps = 1;
        run_image(&image, &SimConfig::default(), &launch).expect("volta completes this kernel");
        let cfg = SimConfig { recon: ReconvergenceModel::IpdomStack, ..SimConfig::default() };
        let err = run_image(&image, &cfg, &launch).expect_err("the stack model deadlocks");
        match err {
            SimError::Deadlock { recon: ReconDump::IpdomStack { stack }, .. } => {
                assert!(!stack.is_empty(), "report must carry the reconvergence stack");
                assert!(stack.iter().any(|e| e.pending != 0));
            }
            other => panic!("expected an ipdom deadlock dump, got {other:?}"),
        }
    }
}
