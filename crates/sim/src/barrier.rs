//! The warp control plane: per-lane PCs and statuses, the
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
//! [`WarpCtl`] is pure control: it holds no register, memory or RNG
//! state. The decoded engine ([`crate::exec`]) wraps it with each
//! thread's data, the sweep cohort ([`crate::sweep`]) with frame
//! metadata over its shared data plane; both drive the same transitions,
//! so two equal control planes behave identically forever — the fact the
//! cohort's merge test rests on. Transitions report the lanes they
//! joined, parked or released through a sink of [`CtlEvent`]s: the
//! decoded engine turns them into journal events, the cohort (which
//! never journals) passes a no-op.

use crate::config::{SchedulerPolicy, SimConfig};
use crate::decode::{DecodedFunc, DecodedImage};
use crate::error::{BarrierState, SimError};
use crate::machine::Launch;
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

/// A control transition the journal records, minus the cycle and warp
/// index the control plane does not know.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CtlEvent {
    Join { barrier: BarrierId, mask: u64 },
    Cancel { barrier: BarrierId, mask: u64 },
    Wait { barrier: BarrierId, mask: u64 },
    Release { barrier: BarrierId, mask: u64 },
    SyncArrive { mask: u64 },
    SyncRelease { mask: u64 },
}

/// One warp's control state. Equality is the merge test of the sweep
/// cohort: planes that compare equal (and whose frame shapes agree)
/// schedule and transition identically from then on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WarpCtl {
    /// Live pc of each lane's top frame: the grouping scan reads this
    /// contiguous array. Stale for exited lanes.
    pub(crate) pcs: Vec<usize>,
    /// Per-lane status; the four masks below cache it.
    pub(crate) status: Vec<Status>,
    /// Barrier participation masks, one bit per lane.
    pub(crate) masks: Vec<u64>,
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
}

impl WarpCtl {
    /// Validates `launch` against the image and returns the kernel's
    /// function record plus the control plane every warp starts from
    /// (all lanes runnable at the kernel entry).
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
        let ctl = WarpCtl {
            pcs: vec![kfunc.entry_pc as usize; width],
            status: vec![Status::Runnable; width],
            masks: vec![0; image.num_barriers],
            lane_mask,
            runnable: lane_mask,
            waiting: 0,
            at_sync: 0,
            exited: 0,
            busy_until: 0,
            rr_cursor: 0,
            last_lanes: 0,
            done: false,
        };
        Ok((kfunc, ctl))
    }

    /// Lanes that have not exited.
    #[inline]
    pub(crate) fn live(&self) -> u64 {
        self.lane_mask & !self.exited
    }

    /// Moves every lane of `mask` to the next instruction.
    #[inline]
    pub(crate) fn advance(&mut self, mask: u64) {
        for l in lanes(mask) {
            self.pcs[l] += 1;
        }
    }

    /// What `arrived` reads: the participant count of barrier `b`.
    #[inline]
    pub(crate) fn arrived(&self, b: BarrierId) -> i64 {
        i64::from(self.masks[b.index()].count_ones())
    }

    /// The barrier a blocked lane is parked on, for deadlock reports.
    /// `WaitingSync` reports as barrier 0 (the diagnostic text carries
    /// the real story).
    pub(crate) fn blocked_on(&self, lane: usize) -> BarrierId {
        match self.status[lane] {
            Status::Waiting(b) => b,
            _ => BarrierId(0),
        }
    }

    /// Lanes parked on barrier `b`: scans only the waiting mask
    /// (statuses carry which barrier each waiting lane is parked on).
    fn waiters(&self, b: BarrierId) -> u64 {
        let mut waiters = 0u64;
        for l in lanes(self.waiting) {
            if self.status[l] == Status::Waiting(b) {
                waiters |= 1 << l;
            }
        }
        waiters
    }

    /// Executes the control effects of one barrier operation for the
    /// issued lane mask. `arrived` only advances here — its register
    /// write is data, done by the engine from [`Self::arrived`].
    pub(crate) fn barrier(&mut self, mask: u64, op: BarrierOp, sink: &mut impl FnMut(CtlEvent)) {
        match op {
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                self.masks[b.index()] |= mask;
                self.advance(mask);
                sink(CtlEvent::Join { barrier: b, mask });
            }
            BarrierOp::Cancel(b) => {
                self.masks[b.index()] &= !mask;
                self.advance(mask);
                sink(CtlEvent::Cancel { barrier: b, mask });
                self.release_check(b, sink);
            }
            BarrierOp::Copy { dst, src } => {
                self.masks[dst.index()] = self.masks[src.index()];
                self.advance(mask);
                self.release_check(dst, sink);
            }
            BarrierOp::ArrivedCount { .. } => self.advance(mask),
            BarrierOp::Wait(b) => {
                // Block at the wait instruction; the PC advances on
                // release.
                for l in lanes(mask) {
                    self.status[l] = Status::Waiting(b);
                }
                self.runnable &= !mask;
                self.waiting |= mask;
                sink(CtlEvent::Wait { barrier: b, mask });
                self.release_check(b, sink);
            }
        }
    }

    /// Parks the issued lanes at `__syncthreads` and releases the warp
    /// if they were the last to arrive.
    pub(crate) fn sync_arrive(&mut self, mask: u64, sink: &mut impl FnMut(CtlEvent)) {
        for l in lanes(mask) {
            self.status[l] = Status::WaitingSync;
        }
        self.runnable &= !mask;
        self.at_sync |= mask;
        sink(CtlEvent::SyncArrive { mask });
        self.sync_release_check(sink);
    }

    /// Releases the `__syncthreads` cohort once every live thread is at
    /// one.
    fn sync_release_check(&mut self, sink: &mut impl FnMut(CtlEvent)) {
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
        sink(CtlEvent::SyncRelease { mask: releasing });
    }

    /// Releases barrier `b` if every live participant is blocked on it.
    fn release_check(&mut self, b: BarrierId, sink: &mut impl FnMut(CtlEvent)) {
        let waiting_b = self.waiters(b);
        if waiting_b == 0 {
            return;
        }
        let participants = self.masks[b.index()] & self.live();
        if participants & !waiting_b == 0 {
            // Release: all waiting lanes advance past their wait; the
            // barrier register is consumed.
            self.masks[b.index()] = 0;
            for l in lanes(waiting_b) {
                self.status[l] = Status::Runnable;
                self.pcs[l] += 1;
            }
            self.waiting &= !waiting_b;
            self.runnable |= waiting_b;
            sink(CtlEvent::Release { barrier: b, mask: waiting_b });
        }
    }

    /// Exits the lanes of `mask`: drops them from every barrier and
    /// re-checks releases — the forward-progress rule. Batched over a
    /// mask: releases are monotone in removed participants, so clearing
    /// the whole cohort before one re-check pass releases exactly the
    /// barriers that per-lane processing would.
    pub(crate) fn exit(&mut self, mask: u64, sink: &mut impl FnMut(CtlEvent)) {
        for l in lanes(mask) {
            self.status[l] = Status::Exited;
        }
        self.runnable &= !mask;
        self.waiting &= !mask;
        self.at_sync &= !mask;
        self.exited |= mask;
        for m in &mut self.masks {
            *m &= !mask;
        }
        for b in 0..self.masks.len() {
            self.release_check(BarrierId::new(b), sink);
        }
        self.sync_release_check(sink);
    }

    /// Snapshot of every barrier register that still has live
    /// participants or waiters (the deadlock diagnostic dump).
    pub(crate) fn barrier_dump(&self) -> Vec<BarrierState> {
        let live = self.live();
        let mut out = Vec::new();
        for (i, &m) in self.masks.iter().enumerate() {
            let b = BarrierId::new(i);
            let waiters = self.waiters(b);
            let participants = m & live;
            if participants != 0 || waiters != 0 {
                out.push(BarrierState { barrier: b, participants, waiters });
            }
        }
        out
    }

    /// Debug-only invariant: the incremental status masks must agree
    /// with the per-lane statuses they cache. Runs under every test
    /// (including the differential proptests of both engines), so any
    /// missed transition point fails loudly.
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
    }

    /// Groups the runnable lanes of `eligible` by flat PC and applies
    /// the scheduler policy. `groups` is scratch; `other_pcs` receives
    /// the pcs of the groups that were *not* chosen (empty after a
    /// converged pick) for the straight-line batcher's merge guard.
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
        eligible: u64,
        groups: &mut Vec<(usize, u64)>,
        other_pcs: &mut Vec<usize>,
    ) -> Option<(usize, u64)> {
        #[cfg(debug_assertions)]
        self.check_masks();
        let runnable = self.runnable & eligible;
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
