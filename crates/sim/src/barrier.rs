//! The warp control plane: per-lane PCs, statuses and call frames, the
//! convergence-barrier register file, `__syncthreads`, and group
//! picking — everything the Speculative Reconvergence passes actually
//! manipulate, defined once.
//!
//! Barrier registers hold per-warp participation masks (one bit per
//! lane). `Wait` blocks a thread until every live participant of the
//! barrier is blocked on it, then releases them together and clears the
//! register — which is how reconvergence happens. A thread's exit drops
//! it from every mask so barriers never wait on departed threads
//! (Volta's forward-progress guarantee). `__syncthreads` is the separate
//! *correctness* barrier: every live thread of the warp must arrive
//! before any proceeds.
//!
//! Everything here is mask-form: the issued group arrives as a `u64`
//! lane mask, participation updates are single OR/AND-NOT operations,
//! and the incremental `runnable`/`waiting`/`at_sync`/`exited` masks are
//! maintained at each status transition so the scheduler never re-scans
//! lane statuses.
//!
//! [`WarpCtl`] is all of a warp's control, the call stack included: each
//! lane's frames ([`Frame`]: saved pc, return registers, where the
//! register window sits in the lane's stack) live in one flat table with
//! per-lane bases, bump pointers and depths, pushed and popped by
//! [`WarpCtl::call`] and [`WarpCtl::ret`]. It holds no register value,
//! memory cell or RNG stream: the cohort ([`crate::sweep`]) keeps those
//! in columns — the lanes as columns at one slot, the seeds at more — and
//! maps a stack offset to its rows. Every sub-cohort drives the same
//! transitions, so two equal control planes behave identically forever —
//! the fact the cohort's merge test (`==` on its planes) rests on.
//! Transitions report the lanes they joined, parked or released through
//! a sink of [`JournalKind`]s, which the observer stamps with cycle and
//! warp (it records nothing unless one slot runs).

use crate::config::{ReconvergenceModel, SchedulerPolicy, SimConfig};
use crate::decode::{DecodedFunc, DecodedImage, PoolRange};
use crate::error::{BarrierState, SimError};
use crate::journal::JournalKind;
use crate::machine::Launch;
use crate::recon::{Split, StackEntry};
use crate::sched::{lanes, select_group_mask};
use simt_ir::{BarrierId, BarrierOp};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Waiting(BarrierId),
    /// Blocked at `__syncthreads` until every live thread arrives.
    WaitingSync,
    Exited,
}

/// One call frame of a lane. Where its register window sits is control,
/// shared by every slot of a cohort; the values inside it are data.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    /// Saved pc. Authoritative only while the frame is suspended (a call
    /// is in flight above it); the live frame's pc is [`WarpCtl::pcs`],
    /// the contiguous array the scheduler scans.
    pub(crate) pc: usize,
    /// Caller registers (a [`DecodedImage::reg_pool`] span) that receive
    /// this frame's return values.
    pub(crate) ret_regs: PoolRange,
    /// Stack offset of the frame's register 0 in its lane's stack.
    pub(crate) base: usize,
}

/// One warp's control state. Equality is the merge test of the sweep
/// cohort: planes that compare equal schedule, transition and address
/// registers identically from then on.
#[derive(Clone, Debug)]
pub(crate) struct WarpCtl {
    /// Live pc of each lane's top frame: the grouping scan reads this
    /// contiguous array. Stale for exited lanes.
    pub(crate) pcs: Vec<usize>,
    /// Per-lane status; the four masks below cache it.
    pub(crate) status: Vec<Status>,
    /// Barrier participation masks, one bit per lane.
    pub(crate) masks: Vec<u64>,
    /// Per barrier, the lanes parked on it ([`Status::Waiting`]): a cache
    /// of `status`, set where a lane parks and cleared at its release or
    /// exit, so a release check reads one word.
    pub(crate) waiters: Vec<u64>,
    /// All lanes of this warp (`warp_width` low bits set).
    pub(crate) lane_mask: u64,
    /// Lanes whose status is [`Status::Runnable`]. The scheduler reads
    /// only this; every status transition updates it.
    pub(crate) runnable: u64,
    /// Lanes blocked on a convergence barrier ([`Status::Waiting`]).
    pub(crate) waiting: u64,
    /// Lanes blocked at `__syncthreads` ([`Status::WaitingSync`]).
    pub(crate) at_sync: u64,
    /// Lanes that exited ([`Status::Exited`]).
    pub(crate) exited: u64,
    pub(crate) busy_until: u64,
    pub(crate) rr_cursor: usize,
    /// Lanes of the group issued last (greedy scheduling state).
    pub(crate) last_lanes: u64,
    pub(crate) done: bool,
    /// Per lane: stack offset of the live frame's register 0 (its
    /// [`Frame::base`], cached).
    pub(crate) bases: Vec<usize>,
    /// Per lane: bump pointer, the first free stack offset above the live
    /// frame.
    pub(crate) tops: Vec<usize>,
    /// Per lane: index of the live frame (0 = the kernel's).
    pub(crate) depths: Vec<usize>,
    /// Frame `d` of lane `l` at `[d * width + l]`, for `d <= depths[l]`;
    /// entries above a lane's depth are stale.
    pub(crate) frames: Vec<Frame>,
    /// The live base every lane shares, while they share one — always,
    /// unless lanes sit at different call depths. A cache of `bases`,
    /// recomputed by [`WarpCtl::call`] and [`WarpCtl::ret`].
    pub(crate) shared: Option<usize>,
    /// The IPDOM stack (empty under the other models): while the top entry
    /// exists, only its `pending` lanes are [`schedulable`](WarpCtl::schedulable).
    pub(crate) ipdom_stack: Vec<StackEntry>,
    /// Under the IPDOM stack, the divergent branch the current issue ran,
    /// `(branch pc, taken, not taken)`, until the stack pushes it.
    pub(crate) branch: Option<(usize, u64, u64)>,
    /// Warp splits (empty unless warp-split): they partition the warp's
    /// unexited lanes.
    pub(crate) splits: Vec<Split>,
}

/// Every field counts except what no transition reads: a lane's
/// live-frame saved pc (stale by design; the live pc is in `pcs`), frame
/// entries above its depth, the two caches, `waiters` and `shared`, and
/// `branch`, which lives only between an issue and its IPDOM hook.
impl PartialEq for WarpCtl {
    fn eq(&self, o: &Self) -> bool {
        let WarpCtl {
            pcs,
            status,
            masks,
            waiters: _,
            lane_mask,
            runnable,
            waiting,
            at_sync,
            exited,
            busy_until,
            rr_cursor,
            last_lanes,
            done,
            bases,
            tops,
            depths,
            frames: _,
            shared: _,
            ipdom_stack,
            branch: _,
            splits,
        } = self;
        // Scalars first: most unequal planes differ in a clock or a mask.
        (busy_until, rr_cursor, last_lanes, done)
            == (&o.busy_until, &o.rr_cursor, &o.last_lanes, &o.done)
            && (lane_mask, runnable, waiting, at_sync, exited)
                == (&o.lane_mask, &o.runnable, &o.waiting, &o.at_sync, &o.exited)
            && (pcs, status, masks, bases, tops, depths)
                == (&o.pcs, &o.status, &o.masks, &o.bases, &o.tops, &o.depths)
            && (ipdom_stack, splits) == (&o.ipdom_stack, &o.splits)
            && depths.iter().enumerate().all(|(l, &top)| {
                (0..=top).all(|d| {
                    let (a, b) = (self.frame(l, d), o.frame(l, d));
                    a.base == b.base && a.ret_regs == b.ret_regs && (d == top || a.pc == b.pc)
                })
            })
    }
}

impl WarpCtl {
    /// Validates `launch` against the image and returns the kernel's
    /// function record plus the control plane every warp starts from
    /// (all lanes runnable at the kernel entry, in the kernel frame).
    pub(crate) fn for_launch(
        image: &DecodedImage,
        cfg: &SimConfig,
        launch: &Launch,
    ) -> Result<(DecodedFunc, WarpCtl), SimError> {
        let kernel = image
            .func_by_name(&launch.kernel)
            .ok_or_else(|| SimError::NoSuchKernel(launch.kernel.clone()))?;
        let kfunc = image.funcs[kernel.index()];
        if launch.args.len() > kfunc.num_params as usize {
            return Err(SimError::InvalidModule(format!(
                "kernel @{} takes {} params, launch provides {}",
                image.func_names[kernel.index()],
                kfunc.num_params,
                launch.args.len()
            )));
        }
        cfg.check_warp_width()?;
        let width = cfg.warp_width;
        let lane_mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let kernel = Frame { pc: kfunc.entry_pc as usize, ret_regs: PoolRange::EMPTY, base: 0 };
        let ctl = WarpCtl {
            pcs: vec![kernel.pc; width],
            status: vec![Status::Runnable; width],
            masks: vec![0; image.num_barriers],
            waiters: vec![0; image.num_barriers],
            lane_mask,
            runnable: lane_mask,
            waiting: 0,
            at_sync: 0,
            exited: 0,
            busy_until: 0,
            rr_cursor: 0,
            last_lanes: 0,
            done: false,
            bases: vec![0; width],
            tops: vec![kfunc.num_regs as usize; width],
            depths: vec![0; width],
            frames: vec![kernel; width],
            shared: Some(0),
            ipdom_stack: Vec::new(),
            branch: None,
            splits: match cfg.recon {
                ReconvergenceModel::WarpSplit { .. } => {
                    vec![Split { mask: lane_mask, busy_until: 0 }]
                }
                _ => Vec::new(),
            },
        };
        Ok((kfunc, ctl))
    }

    /// Lanes per warp.
    #[inline(always)]
    pub(crate) fn width(&self) -> usize {
        self.pcs.len()
    }

    /// Lane `l`'s frame `d` (stale above its depth).
    #[inline]
    pub(crate) fn frame(&self, l: usize, d: usize) -> Frame {
        self.frames[d * self.width() + l]
    }

    /// Lane `l`'s live frame.
    #[inline]
    pub(crate) fn top(&self, l: usize) -> Frame {
        self.frame(l, self.depths[l])
    }

    /// Calls `entry` in every lane of `mask`: suspends each lane's live
    /// frame at `ret_pc` and makes a frame of `num_regs` registers at its
    /// bump pointer live. The engine fills the callee's window first (at
    /// the old [`Self::tops`], arguments read at [`Self::bases`]).
    pub(crate) fn call(
        &mut self,
        mask: u64,
        ret_pc: usize,
        entry: usize,
        ret_regs: PoolRange,
        num_regs: usize,
    ) {
        let width = self.width();
        for l in lanes(mask) {
            let (d, base) = (self.depths[l] + 1, self.tops[l]);
            if self.frames.len() < (d + 1) * width {
                let stale = self.frames[l];
                self.frames.resize((d + 1) * width, stale);
            }
            self.frames[(d - 1) * width + l].pc = ret_pc;
            self.frames[d * width + l] = Frame { pc: entry, ret_regs, base };
            (self.depths[l], self.bases[l], self.tops[l], self.pcs[l]) =
                (d, base, base + num_regs, entry);
        }
        self.shared = shared_base(&self.bases);
    }

    /// Returns every lane of `mask` from its live frame: pops it,
    /// releasing its window, and resumes the caller at its saved pc. A
    /// lane in its kernel frame exits instead ([`Self::exit`]). The engine
    /// moves the return values first (callee window at [`Self::bases`],
    /// the caller's one frame down).
    pub(crate) fn ret(&mut self, mask: u64, sink: &mut impl FnMut(JournalKind)) {
        let mut exited = 0u64;
        for l in lanes(mask) {
            let Some(d) = self.depths[l].checked_sub(1) else {
                exited |= 1 << l;
                continue;
            };
            let caller = self.frame(l, d);
            (self.depths[l], self.tops[l], self.bases[l], self.pcs[l]) =
                (d, self.bases[l], caller.base, caller.pc);
        }
        self.shared = shared_base(&self.bases);
        if exited != 0 {
            self.exit(exited, sink);
        }
    }

    /// Lanes that have not exited.
    #[inline]
    pub(crate) fn live(&self) -> u64 {
        self.lane_mask & !self.exited
    }

    /// Moves every lane of `mask` to `pc`.
    #[inline]
    pub(crate) fn move_to(&mut self, mask: u64, pc: usize) {
        for l in lanes(mask) {
            self.pcs[l] = pc;
        }
    }

    /// What `arrived` reads: the participant count of barrier `b`.
    #[inline]
    pub(crate) fn arrived(&self, b: BarrierId) -> i64 {
        i64::from(self.masks[b.index()].count_ones())
    }

    /// Executes the control effects of one barrier operation for the
    /// issued lane mask. Returns whether the issued lanes move on to the
    /// next instruction, which the caller then does: all but a `wait`'s,
    /// which a release advances. `arrived` has no control effect — its
    /// register write is data, done by the engine from [`Self::arrived`].
    pub(crate) fn barrier(
        &mut self,
        mask: u64,
        op: BarrierOp,
        sink: &mut impl FnMut(JournalKind),
    ) -> bool {
        match op {
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                self.masks[b.index()] |= mask;
                sink(JournalKind::BarrierJoin { barrier: b, mask });
            }
            BarrierOp::Cancel(b) => {
                self.masks[b.index()] &= !mask;
                sink(JournalKind::BarrierCancel { barrier: b, mask });
                self.release_check(b, sink);
            }
            BarrierOp::Copy { dst, src } => {
                self.masks[dst.index()] = self.masks[src.index()];
                self.release_check(dst, sink);
            }
            BarrierOp::ArrivedCount { .. } => {}
            BarrierOp::Wait(b) => {
                // Block at the wait instruction; the PC advances on
                // release.
                for l in lanes(mask) {
                    self.status[l] = Status::Waiting(b);
                }
                self.runnable &= !mask;
                self.waiting |= mask;
                self.waiters[b.index()] |= mask;
                sink(JournalKind::BarrierWait { barrier: b, mask });
                self.release_check(b, sink);
                return false;
            }
        }
        true
    }

    /// Parks the issued lanes at `__syncthreads` and releases the warp
    /// if they were the last to arrive.
    pub(crate) fn sync_arrive(&mut self, mask: u64, sink: &mut impl FnMut(JournalKind)) {
        for l in lanes(mask) {
            self.status[l] = Status::WaitingSync;
        }
        self.runnable &= !mask;
        self.at_sync |= mask;
        sink(JournalKind::SyncArrive { mask });
        self.sync_release_check(sink);
    }

    /// Releases the `__syncthreads` cohort once every live thread is at
    /// one.
    fn sync_release_check(&mut self, sink: &mut impl FnMut(JournalKind)) {
        // All live threads are at the sync exactly when nothing is
        // runnable or barrier-blocked and at least one lane arrived.
        if self.runnable != 0 || self.waiting != 0 || self.at_sync == 0 {
            return;
        }
        let releasing = self.at_sync;
        for l in lanes(releasing) {
            self.status[l] = Status::Runnable;
            self.pcs[l] += 1;
        }
        self.at_sync = 0;
        self.runnable |= releasing;
        sink(JournalKind::SyncRelease { mask: releasing });
    }

    /// Releases barrier `b` if every live participant is blocked on it.
    fn release_check(&mut self, b: BarrierId, sink: &mut impl FnMut(JournalKind)) {
        let waiting_b = self.waiters[b.index()];
        if waiting_b == 0 {
            return;
        }
        let participants = self.masks[b.index()] & self.live();
        if participants & !waiting_b == 0 {
            // Release: all waiting lanes advance past their wait; the
            // barrier register is consumed.
            self.masks[b.index()] = 0;
            self.waiters[b.index()] = 0;
            for l in lanes(waiting_b) {
                self.status[l] = Status::Runnable;
                self.pcs[l] += 1;
            }
            self.waiting &= !waiting_b;
            self.runnable |= waiting_b;
            sink(JournalKind::BarrierRelease { barrier: b, mask: waiting_b });
        }
    }

    /// Exits the lanes of `mask`: drops them from every barrier and
    /// re-checks releases — the forward-progress rule. Batched over a
    /// mask: releases are monotone in removed participants, so clearing
    /// the whole cohort before one re-check pass releases exactly the
    /// barriers that per-lane processing would.
    pub(crate) fn exit(&mut self, mask: u64, sink: &mut impl FnMut(JournalKind)) {
        for l in lanes(mask) {
            self.status[l] = Status::Exited;
        }
        self.runnable &= !mask;
        self.waiting &= !mask;
        self.at_sync &= !mask;
        self.exited |= mask;
        for m in self.masks.iter_mut().chain(&mut self.waiters) {
            *m &= !mask;
        }
        for b in 0..self.masks.len() {
            self.release_check(BarrierId::new(b), sink);
        }
        self.sync_release_check(sink);
    }

    /// Both engines' deadlock report of warp `w` at `cycle`, whose live
    /// lanes all block with the release checks run; `model` adds its state
    /// ([`WarpCtl::recon_dump`]). Each lane names the barrier it is parked
    /// on (`WaitingSync` as barrier 0: the diagnostic text carries the
    /// real story), and every barrier register with live participants or
    /// waiters is dumped.
    pub(crate) fn deadlock(
        &self,
        image: &DecodedImage,
        w: usize,
        cycle: u64,
        model: ReconvergenceModel,
    ) -> SimError {
        let (live, at) = (self.live(), |l| image.location(w, l, self.pcs[l]));
        let parked = |l| if let Status::Waiting(b) = self.status[l] { b } else { BarrierId(0) };
        let barriers = self.masks.iter().enumerate().map(|(i, &m)| {
            let barrier = BarrierId::new(i);
            BarrierState { barrier, participants: m & live, waiters: self.waiters[i] }
        });
        SimError::Deadlock {
            cycle,
            waiting: lanes(live).map(|l| (at(l), parked(l))).collect(),
            barriers: barriers.filter(|b| b.participants != 0 || b.waiters != 0).collect(),
            recon: self.recon_dump(model),
        }
    }

    /// Debug-only invariant: the incremental status masks and the
    /// per-barrier waiter masks must agree with the per-lane statuses
    /// they cache. Runs under every test (including the differential
    /// proptests of both engines), so any missed transition point fails
    /// loudly.
    #[cfg(debug_assertions)]
    pub(crate) fn check_masks(&self) {
        let mut expect = (0u64, 0u64, 0u64, 0u64);
        for (l, s) in self.status.iter().enumerate() {
            let bit = 1u64 << l;
            match s {
                Status::Runnable => expect.0 |= bit,
                Status::Waiting(_) => expect.1 |= bit,
                Status::WaitingSync => expect.2 |= bit,
                Status::Exited => expect.3 |= bit,
            }
        }
        assert_eq!(
            (self.runnable, self.waiting, self.at_sync, self.exited),
            expect,
            "status masks out of sync with lane statuses"
        );
        for (b, &waiters) in self.waiters.iter().enumerate() {
            let parked = lanes(self.waiting)
                .filter(|&l| self.status[l] == Status::Waiting(BarrierId::new(b)))
                .fold(0, |m, l| m | 1 << l);
            assert_eq!(
                waiters, parked,
                "waiter mask of barrier {b} out of sync with lane statuses"
            );
        }
    }

    /// Debug-only invariant beside [`Self::check_masks`]: each lane's
    /// cached base is its live frame's, the bump pointer sits exactly
    /// above that frame's window (the live pc names the frame's
    /// function), and `shared` is current.
    #[cfg(debug_assertions)]
    pub(crate) fn check_frames(&self, image: &DecodedImage) {
        for l in 0..self.width() {
            let func = image.origin[self.pcs[l]].func;
            let len = image.funcs[func.index()].num_regs as usize;
            assert_eq!(self.bases[l], self.top(l).base, "live base of lane {l}");
            assert_eq!(self.tops[l], self.bases[l] + len, "bump pointer of lane {l}");
        }
        assert_eq!(self.shared, shared_base(&self.bases), "stale shared frame base");
    }

    /// Groups the [`schedulable`](WarpCtl::schedulable) lanes by flat PC
    /// and applies the scheduler policy. `groups` is scratch; `other_pcs`
    /// receives the pcs of the groups that were *not* chosen (empty after
    /// a converged pick) for the straight-line batcher's merge guard.
    ///
    /// A converged warp (all runnable lanes at one pc — the common
    /// case) is detected in the first pass and short-circuits to a
    /// single group. Divergent warps accumulate `(pc, mask)` groups by
    /// scanning the group list per lane — divergence produces a handful
    /// of groups, so the scan beats sorting the lanes — kept pc-sorted
    /// by insertion, as [`select_group_mask`] requires. Flat-pc order
    /// equals the tree-walker's `(func, block, inst)` order by
    /// construction of the image layout, so every policy picks the same
    /// group it would have picked there.
    pub(crate) fn pick_group(
        &mut self,
        policy: SchedulerPolicy,
        groups: &mut Vec<(usize, u64)>,
        other_pcs: &mut Vec<usize>,
    ) -> Option<(usize, u64)> {
        #[cfg(debug_assertions)]
        self.check_masks();
        let runnable = self.schedulable();
        if runnable == 0 {
            return None;
        }
        let pcs = &self.pcs;
        let first = runnable.trailing_zeros() as usize;
        let pc0 = pcs[first];
        let mut rest = runnable & (runnable - 1); // lanes after `first`
        let mut converged = true;
        for l in lanes(rest) {
            if pcs[l] != pc0 {
                converged = false;
                rest &= !((1u64 << l) - 1); // diverging suffix starts here
                break;
            }
        }
        other_pcs.clear();
        if converged {
            // One group. Every policy picks it; RoundRobin still
            // consumes an issue slot from its cursor.
            if policy == SchedulerPolicy::RoundRobin {
                self.rr_cursor = self.rr_cursor.wrapping_add(1);
            }
            return Some((pc0, runnable));
        }
        groups.clear();
        // Lanes before the first divergence all sit at pc0.
        groups.push((pc0, runnable & !rest));
        for l in lanes(rest) {
            let pc = pcs[l];
            match groups.iter().position(|&(p, _)| p >= pc) {
                Some(i) if groups[i].0 == pc => groups[i].1 |= 1 << l,
                Some(i) => groups.insert(i, (pc, 1 << l)),
                None => groups.push((pc, 1 << l)),
            }
        }
        let picked = select_group_mask(policy, groups, self.last_lanes, &mut self.rr_cursor);
        if let Some((pc, _)) = picked {
            other_pcs.extend(groups.iter().map(|&(p, _)| p).filter(|&p| p != pc));
        }
        picked
    }
}

/// The base every lane of `bases` shares, if they share one.
fn shared_base(bases: &[usize]) -> Option<usize> {
    let b = bases[0];
    bases.iter().all(|&x| x == b).then_some(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodedInst;

    /// A kernel with two call sites of `@f`, returning into different
    /// registers.
    const TWO_SITES: &str = "\
kernel @k(params=0, regs=4, barriers=0, entry=bb0) {
bb0:
  call @f() -> (%r0)
  call @f() -> (%r1)
  exit
}
device @f(params=0, regs=2, barriers=0, entry=bb0) {
bb0:
  ret 1
}
";

    /// The kernel's launch plane at width 4, and each call site's `(pc,
    /// ret_regs)` plus the callee's entry and register count.
    fn plane() -> (WarpCtl, [(usize, PoolRange); 2], usize, usize) {
        let image = DecodedImage::decode(&simt_ir::parse_and_link(TWO_SITES).unwrap());
        let cfg = SimConfig { warp_width: 4, ..SimConfig::default() };
        let launch = Launch {
            kernel: "k".into(),
            num_warps: 1,
            args: vec![],
            global_mem: vec![],
            local_mem_size: 0,
            seed: 0,
        };
        let ctl = WarpCtl::for_launch(&image, &cfg, &launch).unwrap().1;
        let mut callee = (0, 0);
        let sites: Vec<_> = (image.insts.iter().enumerate())
            .filter_map(|(pc, inst)| match *inst {
                DecodedInst::Call { entry_pc, num_regs, rets, .. } => {
                    callee = (entry_pc as usize, num_regs as usize);
                    Some((pc, rets))
                }
                _ => None,
            })
            .collect();
        (ctl, sites.try_into().unwrap(), callee.0, callee.1)
    }

    /// The merge test ignores what no transition reads — a live frame's
    /// saved pc, entries above a lane's depth — and nothing else of the
    /// frame table.
    #[test]
    fn frame_equality_ignores_only_stale_entries() {
        let (launch, [(site_a, rets_a), (site_b, rets_b)], entry, n) = plane();
        assert_ne!(rets_a, rets_b, "two call sites, two return spans");
        let (m, sink) = (0b0110, &mut |_| {});
        // Lanes 1 and 2 return from `@f` called at two different sites
        // (one plane twice nested), then stand at the same pc again.
        let (mut a, mut b) = (launch.clone(), launch.clone());
        a.call(m, site_a + 1, entry, rets_a, n);
        a.ret(m, sink);
        b.call(m, site_b + 1, entry, rets_b, n);
        b.call(m, entry + 1, entry, rets_a, n);
        b.ret(m, sink);
        b.ret(m, sink);
        assert_ne!(a.frame(1, 0).pc, b.frame(1, 0).pc);
        assert_ne!(a.frame(1, 1).ret_regs, b.frame(1, 1).ret_regs);
        a.move_to(m, site_b + 1);
        assert_eq!(a, b, "live saved pcs and stale frames are ignored");

        // Inside two nested calls, every suspended field and base counts.
        let mut deep = launch;
        deep.call(m, site_a + 1, entry, rets_a, n);
        deep.call(m, entry + 1, entry, rets_b, n);
        // Frame `d` of lane `l` sits at `d * 4 + l`.
        assert_ne!(deep.frame(2, 1).ret_regs, deep.frame(2, 2).ret_regs);
        let differs = |what: &str, change: fn(&mut WarpCtl)| {
            let mut other = deep.clone();
            change(&mut other);
            assert_ne!(deep, other, "{what} differs");
        };
        differs("a suspended frame's saved pc", |c| c.frames[1].pc += 1);
        differs("a suspended frame's ret_regs", |c| {
            c.frames[4 + 2].ret_regs = c.frames[8 + 2].ret_regs
        });
        differs("a suspended frame's base", |c| c.frames[4 + 1].base += 1);
        differs("a live base", |c| c.bases[2] += 1);
    }

    /// Each barrier's waiter mask follows its lanes through a wait, a
    /// release and an exit (debug builds' `check_masks` re-derives every
    /// mask from the statuses), and the merge test leaves the cache out.
    #[test]
    fn waiter_masks_follow_wait_release_and_exit() {
        let kernel = "kernel @k(params=0, regs=1, barriers=2, entry=bb0) {\nbb0:\n  exit\n}\n";
        let image = DecodedImage::decode(&simt_ir::parse_and_link(kernel).unwrap());
        let cfg = SimConfig { warp_width: 4, ..SimConfig::default() };
        let launch = Launch {
            kernel: "k".into(),
            num_warps: 1,
            args: vec![],
            global_mem: vec![],
            local_mem_size: 0,
            seed: 0,
        };
        let mut ctl = WarpCtl::for_launch(&image, &cfg, &launch).unwrap().1;
        let (b0, b1, sink) = (BarrierId::new(0), BarrierId::new(1), &mut |_| {});
        ctl.barrier(0b1111, BarrierOp::Join(b0), sink);
        ctl.barrier(0b0011, BarrierOp::Join(b1), sink);
        assert!(!ctl.barrier(0b0001, BarrierOp::Wait(b1), sink));
        assert!(!ctl.barrier(0b0100, BarrierOp::Wait(b0), sink));
        #[cfg(debug_assertions)]
        ctl.check_masks();
        assert_eq!(ctl.waiters, [0b0100, 0b0001]);
        // Lane 1 leaves both barriers: `b1` releases lane 0, `b0` still
        // waits for lanes 0 and 3.
        ctl.exit(0b0010, sink);
        #[cfg(debug_assertions)]
        ctl.check_masks();
        assert_eq!((ctl.waiters.clone(), ctl.runnable), (vec![0b0100, 0], 0b1001));
        let mut stale = ctl.clone();
        stale.waiters[0] = 0b1000;
        assert_eq!(ctl, stale, "the waiter masks are a cache of the statuses");
        assert!(!ctl.barrier(0b1001, BarrierOp::Wait(b0), sink));
        #[cfg(debug_assertions)]
        ctl.check_masks();
        assert_eq!((ctl.waiters.clone(), ctl.runnable), (vec![0, 0], 0b1101));
    }
}
