//! Reconvergence models and the scheduling rounds that apply them, written
//! once ([`SubRound::step`]) for each sub-cohort of the lockstep cohort — a
//! scalar launch's at one slot.
//!
//! The default model ([`ReconvergenceModel::BarrierFile`]) keeps no state
//! here — compiler-placed barrier ops drive reconvergence through the
//! control plane in `barrier.rs`. The two hardware models keep theirs in
//! that plane too ([`WarpCtl::ipdom_stack`], [`WarpCtl::splits`]), so a
//! fork clones it and the cohort's merge test compares it:
//!
//! * [`ReconvergenceModel::IpdomStack`] reads
//!   [`DecodedImage::reconvergence_pc`]: every conditional-branch pc maps
//!   to the flat pc where its arms reconverge, the entry pc of the branch
//!   block's immediate post-dominator. [`ipdom_table`] computes it with
//!   the compiler's [`DomTree`] over the image's block graph, once per
//!   image on the first query; the image keeps it for every later launch.
//! * [`ReconvergenceModel::WarpSplit`] keeps per-warp [`Split`] lists; the
//!   table is not needed because splits re-fuse opportunistically whenever
//!   their frontiers re-align.
//!
//! [`ReconvergenceModel::BarrierFile`]: crate::config::ReconvergenceModel::BarrierFile
//! [`ReconvergenceModel::IpdomStack`]: crate::config::ReconvergenceModel::IpdomStack
//! [`ReconvergenceModel::WarpSplit`]: crate::config::ReconvergenceModel::WarpSplit

use crate::barrier::WarpCtl;
use crate::config::ReconvergenceModel;
use crate::decode::{DecodedImage, DecodedInst};
use crate::error::{ReconDump, SimError, SplitDump, StackEntryDump};
use crate::sched::{keeps_lockstep, lanes, pick_bumps_rr, select_group_mask};
use crate::sweep::SubRound;
use simt_ir::{BlockId, DomTree};

/// Sentinel reconvergence pc: the branch's arms only meet at function
/// exit, so the IPDOM stack pushes nothing and the arms run to the end
/// of the frame independently.
pub(crate) const NO_RPC: u32 = u32::MAX;

/// Per-model reconvergence counters. All-zero under the default
/// `BarrierFile` model, so adding the field to [`Metrics`](crate::Metrics)
/// changes nothing observable for existing configurations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconStats {
    /// IPDOM stack entries pushed (one per divergent branch arm pair).
    pub stack_pushes: u64,
    /// IPDOM stack entries popped (every pending lane reached the rpc).
    pub stack_pops: u64,
    /// High-water IPDOM stack depth across all warps.
    pub stack_max_depth: u64,
    /// Warp splits created (a split's runnable frontier diverged).
    pub splits: u64,
    /// Split re-fusions (same-pc splits merged back into one).
    pub fusions: u64,
    /// Issue slots a ready split gave up waiting for a same-pc split to
    /// finish within the re-fusion window.
    pub deferrals: u64,
}

/// One entry of a warp's IPDOM reconvergence stack. Lanes in `pending`
/// are the only schedulable lanes of the warp while the entry is on top;
/// each one parks into `arrived` when it reaches `rpc` at the push-time
/// call depth, and the entry pops when `pending` drains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StackEntry {
    /// Flat pc where this entry's lanes reconverge.
    pub rpc: u32,
    /// Frame depth (`WarpCtl::depths`, 0 in the kernel frame) of the
    /// branching lanes, captured at push time; arrival requires an equal
    /// depth so recursive re-entry into the rpc's block does not park a
    /// lane early.
    pub depth: u32,
    /// Lanes that still have to arrive at `rpc`.
    pub pending: u64,
    /// Lanes parked at `rpc` waiting for `pending` to drain.
    pub arrived: u64,
}

/// One independently schedulable warp split under
/// [`ReconvergenceModel::WarpSplit`].
/// Splits partition the warp's unexited lanes; each carries its own
/// issue clock so non-conflicting splits interleave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Split {
    /// Lanes owned by this split (runnable or blocked).
    pub mask: u64,
    /// Cycle at which this split may issue again.
    pub busy_until: u64,
}

/// The IPDOM stack's branch-pc → reconvergence-pc table, parallel to the
/// instruction stream: `NO_RPC` everywhere except at conditional branches
/// whose block has an immediate post-dominator, which get that block's
/// entry pc. One [`DomTree`] per function over the image's own block
/// graph — the tree every compiler pass reads, so the stack reconverges
/// where `pdom` places its barriers.
pub(crate) fn ipdom_table(image: &DecodedImage) -> Vec<u32> {
    let mut rpc = vec![NO_RPC; image.len()];
    for (f, starts) in image.block_starts.iter().enumerate() {
        let end = image.block_starts.get(f + 1).map_or(image.len(), |next| next[0] as usize);
        // Each block's terminator sits on its last pc.
        let terms: Vec<usize> =
            starts.iter().skip(1).map(|&s| s as usize).chain([end]).map(|e| e - 1).collect();
        let block = |pc: u32| image.origin[pc as usize].block;
        let succs: Vec<Vec<BlockId>> = terms
            .iter()
            .map(|&t| match image.insts[t] {
                DecodedInst::Jump { target } => vec![block(target)],
                DecodedInst::Branch { then_pc, else_pc, .. } => {
                    vec![block(then_pc), block(else_pc)]
                }
                _ => Vec::new(), // Return / Exit
            })
            .collect();
        let pdom = DomTree::from_successors(&succs, None);
        for (b, &t) in terms.iter().enumerate() {
            if let (DecodedInst::Branch { .. }, Some(p)) =
                (image.insts[t], pdom.idom(BlockId::new(b)))
            {
                rpc[t] = starts[p.index()];
            }
        }
    }
    rpc
}

/// One warp-split issue candidate: a ready split's frontier pc, its
/// runnable lanes and its index in [`WarpCtl::splits`].
pub(crate) type Cand = (usize, u64, usize);

/// The rounds' reusable buffers.
#[derive(Debug, Default)]
pub(crate) struct RoundBufs {
    groups: Vec<(usize, u64)>,
    cands: Vec<Cand>,
    /// Debug builds' re-pick of a hinted round ([`SubRound::take_hint`]).
    #[cfg(debug_assertions)]
    check: Vec<usize>,
}

/// What the scheduler keeps of one warp between its rounds, outside the
/// control plane and so outside the cohort's merge test: a hint only ever
/// saves a pick. A forked child starts without hints; a merge drops the
/// survivor's.
#[derive(Clone, Debug, Default)]
pub(crate) struct Pick {
    /// What the next round's pick provably returns, left by a batch that
    /// ended with its group intact ([`SubRound::run_ahead`]):
    /// only the warp's own issues can change its scheduling state, so the
    /// next round issues it without the grouping scan (warp-split: without
    /// normalization, fusion and the candidate scan).
    pub(crate) hint: Option<(usize, u64)>,
    /// After a divergent pick, the pcs of the groups not chosen: the
    /// batcher stops before the running group's pc collides with one.
    pub(crate) other_pcs: Vec<usize>,
}

/// The rounds of one sub-cohort of [`crate::sweep`] — a scalar launch's
/// at one slot. These methods drive the control plane and the model state
/// in it; the issue and its forks are written in `sweep.rs`
/// ([`SubRound::issue_round`]), the batcher in `sched.rs`. `Err` ends a
/// round early: the sub-cohort has no slot left.
impl<const L: bool> SubRound<'_, '_, L> {
    /// One scheduling round: every ready warp gets one issue slot under
    /// the configured model, then the clock moves to the next event.
    /// Returns `Ok(true)` once every warp has finished.
    #[inline(always)]
    pub(crate) fn step(&mut self) -> Result<bool, ()> {
        let (cfg, now) = (self.cohort.cfg, self.sub.cycle);
        let (mut next_ready, mut all_done) = (u64::MAX, true);
        for w in 0..self.sub.warps.len() {
            let ctl = &self.sub.warps[w];
            if ctl.done {
                continue;
            }
            all_done = false;
            if ctl.busy_until > now {
                next_ready = next_ready.min(ctl.busy_until);
                continue;
            }
            self.cohort.engine.rounds += 1;
            // The warp-split model schedules per split, not per warp (the
            // batcher and the hints are shared).
            let wake = match cfg.recon {
                ReconvergenceModel::WarpSplit { window, compact } => {
                    self.split_round(w, window, compact)?
                }
                _ => self.warp_round(w)?,
            };
            next_ready = next_ready.min(wake);
        }
        if all_done {
            return Ok(true);
        }
        if now >= cfg.max_cycles {
            let e = SimError::MaxCyclesExceeded { limit: cfg.max_cycles };
            self.cohort.resolve_all(self.sub, &e);
            return Err(());
        }
        // MAX: every remaining warp became done this round; the next step
        // observes it without advancing time.
        if next_ready != u64::MAX {
            self.sub.cycle = next_ready.max(now + 1);
        }
        Ok(false)
    }

    /// Warp `w`'s round under the barrier file and the IPDOM stack: the
    /// hint or the pick over the [`schedulable`](WarpCtl::schedulable)
    /// lanes, then its issue. Returns when the warp wakes (`u64::MAX`: it
    /// finished).
    #[inline(always)]
    fn warp_round(&mut self, w: usize) -> Result<u64, ()> {
        self.pre_pick(w, &[]);
        let picked = self.take_hint(w).or_else(|| {
            let (ctl, pick) = (&mut self.sub.warps[w], &mut self.sub.picks[w]);
            let policy = self.cohort.cfg.scheduler;
            ctl.pick_group(policy, &mut self.cohort.bufs.groups, &mut pick.other_pcs)
        });
        match picked {
            Some((pc, mask)) => {
                let busy = self.issue_round(w, pc, mask)?;
                self.sub.warps[w].busy_until = busy;
                Ok(busy)
            }
            None => self.idle(w),
        }
    }

    /// Warp `w` has nothing to issue: it finished (`u64::MAX`), or every
    /// live lane blocks — barriers are warp-local and the release checks
    /// already ran, so that is a deadlock.
    fn idle(&mut self, w: usize) -> Result<u64, ()> {
        let ctl = &mut self.sub.warps[w];
        if ctl.live() != 0 {
            self.deadlock(w);
            return Err(());
        }
        ctl.done = true;
        Ok(u64::MAX)
    }

    /// Consumes warp `w`'s pick hint: the hinted round stands in for the
    /// pick it skips, down to the RoundRobin cursor slot that pick would
    /// have taken. Debug builds make that pick as well (not under
    /// warp-split, which picks among splits) and check it returns the
    /// hint, leaves the other pcs the round's batch reads and moves the
    /// cursor alike.
    #[inline(always)]
    fn take_hint(&mut self, w: usize) -> Option<(usize, u64)> {
        let cfg = self.cohort.cfg;
        let (ctl, pick) = (&mut self.sub.warps[w], &mut self.sub.picks[w]);
        let hint = pick.hint.take()?;
        let bump = pick_bumps_rr(cfg);
        #[cfg(debug_assertions)]
        if !matches!(cfg.recon, ReconvergenceModel::WarpSplit { .. }) {
            let (rr, bufs) = (ctl.rr_cursor, &mut self.cohort.bufs);
            let picked = ctl.pick_group(cfg.scheduler, &mut bufs.groups, &mut bufs.check);
            assert_eq!(picked, Some(hint), "a hint is not the pick it stands in for");
            assert_eq!(bufs.check, pick.other_pcs, "a hinted round's other pcs are stale");
            let moved = if bump { rr.wrapping_add(1) } else { rr };
            assert_eq!(ctl.rr_cursor, moved, "a hinted round moved the cursor differently");
            ctl.rr_cursor = rr;
        }
        if bump {
            ctl.rr_cursor = ctl.rr_cursor.wrapping_add(1);
        }
        self.cohort.engine.hinted_rounds += 1;
        Some(hint)
    }

    /// Warp `w`'s round under the warp-split model.
    ///
    /// The general round arbitrates: normalize the splits, re-fuse ready
    /// splits whose frontiers re-aligned, then issue — one ready split
    /// chosen by the scheduler policy, or every ready split when subwarp
    /// compaction is on. A ready split defers its slot when a busy split
    /// with the same frontier pc finishes within the re-fusion window.
    ///
    /// A round that arrives with a pick hint has nothing to arbitrate: one
    /// split holds every runnable lane at one pc, so normalization,
    /// fusion, the window scan and the policy would all be no-ops and it
    /// issues directly. Exited lanes of other splits are dropped by the
    /// next general round instead — nothing reads them in between. A child
    /// forked during a round resumes it
    /// ([`SubCohort::resume`](crate::sweep::SubCohort::resume)): re-running
    /// it would see the splits its issued candidates moved and defer or
    /// count again.
    ///
    /// Out of line, so that the barrier file's and the IPDOM stack's rounds
    /// keep the batch loop in a smaller function (about 1 % per issue of a
    /// scalar launch, docs/PERF.md §6).
    #[inline(never)]
    fn split_round(&mut self, w: usize, window: u32, compact: bool) -> Result<u64, ()> {
        let cycle = self.sub.cycle;
        #[cfg(debug_assertions)]
        self.sub.warps[w].check_masks();
        self.pre_pick(w, &[]);
        if let Some((pc, mask)) = self.take_hint(w) {
            let ctl = &self.sub.warps[w];
            let idx =
                ctl.splits.iter().position(|s| s.mask & mask != 0).expect("a split owns the hint");
            #[cfg(debug_assertions)]
            {
                let live = ctl.live();
                assert_eq!(ctl.split_union() & live, live, "splits lost a live lane");
                assert_eq!(mask, ctl.runnable, "hinted split is not the sole frontier");
                assert_eq!(mask, ctl.splits[idx].mask & ctl.runnable);
                assert!(lanes(mask).all(|l| ctl.pcs[l] == pc), "hinted split diverged");
                assert!(ctl.splits[idx].busy_until <= cycle, "hinted split is busy");
            }
            let busy = self.issue_round(w, pc, mask)?;
            self.sub.warps[w].splits[idx].busy_until = busy;
        } else {
            let cands = match self.sub.resume.take_if(|r| r.0 == w) {
                Some((_, cands)) => cands,
                None => {
                    self.cohort.engine.general_split_rounds += 1;
                    let (ctl, bufs) = (&mut self.sub.warps[w], &mut self.cohort.bufs);
                    let mut cands = std::mem::take(&mut bufs.cands);
                    let stats = &mut self.sub.metrics.recon;
                    let min_busy = ctl.split_candidates(cycle, window, &mut cands, stats);
                    if cands.is_empty() {
                        bufs.cands = cands;
                        // Everything runnable is busy (or deferring): sleep
                        // until the earliest split wakes.
                        if min_busy == u64::MAX {
                            return self.idle(w);
                        }
                        ctl.busy_until = min_busy;
                        return Ok(min_busy);
                    }
                    cands
                }
            };
            let issued = self.issue_cands(w, compact, &cands);
            self.cohort.bufs.cands = cands;
            issued?;
        }
        // The warp wakes when its earliest-busy runnable split does. With
        // no runnable lane left it re-examines next round, where it
        // finishes, deadlocks, or a release revived it.
        let ctl = &mut self.sub.warps[w];
        let runnable = ctl.splits.iter().filter(|s| s.mask & ctl.runnable != 0);
        let wake = runnable.map(|s| s.busy_until.max(cycle + 1)).min().unwrap_or(cycle + 1);
        ctl.busy_until = wake;
        Ok(wake)
    }

    /// Issues a general warp-split round's candidates: without compaction
    /// one split wins the warp's issue port (arbitrated by the policy over
    /// the ready frontiers), with it every candidate issues in pc order.
    /// Charges each issue to its split.
    fn issue_cands(&mut self, w: usize, compact: bool, cands: &[Cand]) -> Result<(), ()> {
        let policy = self.cohort.cfg.scheduler;
        for c in 0..cands.len() {
            self.pre_pick(w, &cands[c..]);
            let (pc, run, idx) = if compact {
                cands[c]
            } else {
                // Candidate pcs are unique (fusion merged ready duplicates),
                // as `select_group_mask` requires.
                let (ctl, groups) = (&mut self.sub.warps[w], &mut self.cohort.bufs.groups);
                groups.clear();
                groups.extend(cands.iter().map(|&(pc, run, _)| (pc, run)));
                let (pc, run) =
                    select_group_mask(policy, groups, ctl.last_lanes, &mut ctl.rr_cursor)
                        .expect("non-empty candidate list always yields a pick");
                let idx = cands.iter().find(|c| c.0 == pc).expect("picked pc is a candidate").2;
                (pc, run, idx)
            };
            let busy = self.issue_round(w, pc, run)?;
            self.sub.warps[w].splits[idx].busy_until = busy;
            if !compact {
                break;
            }
        }
        Ok(())
    }
}

// The model transitions, on the control plane every sub-cohort drives.
impl WarpCtl {
    /// The lanes this round's pick chooses among — what a reconvergence
    /// model contributes to a round. The IPDOM stack exposes only its
    /// top entry's pending lanes (taken-first serialization: parked lanes
    /// stay runnable but invisible until the entry pops); the stack is
    /// empty under the other models, which expose every runnable lane (a
    /// warp-split round then arbitrates among splits).
    #[inline]
    pub(crate) fn schedulable(&self) -> u64 {
        self.runnable & self.ipdom_stack.last().map_or(u64::MAX, |e| e.pending)
    }

    /// The model's part of a deadlock report.
    pub(crate) fn recon_dump(&self, model: ReconvergenceModel) -> ReconDump {
        match model {
            ReconvergenceModel::BarrierFile => ReconDump::BarrierFile,
            ReconvergenceModel::IpdomStack => ReconDump::IpdomStack {
                stack: self
                    .ipdom_stack
                    .iter()
                    .rev()
                    .map(|e| StackEntryDump {
                        rpc: (e.rpc != NO_RPC).then_some(e.rpc as usize),
                        pending: e.pending,
                        arrived: e.arrived,
                    })
                    .collect(),
            },
            ReconvergenceModel::WarpSplit { .. } => ReconDump::WarpSplit {
                splits: self
                    .splits
                    .iter()
                    .map(|s| {
                        let run = s.mask & self.runnable;
                        SplitDump {
                            pc: (run != 0).then(|| self.pcs[run.trailing_zeros() as usize]),
                            mask: s.mask,
                            busy_until: s.busy_until,
                        }
                    })
                    .collect(),
            },
        }
    }

    /// IPDOM bookkeeping after `pc` issued for `mask`: turns the issue's
    /// divergent [`branch`](WarpCtl::branch) into two stack pushes (not
    /// taken below taken, so the taken arm runs first), drops exited lanes
    /// from every entry, parks lanes that reached the top entry's
    /// reconvergence pc, and pops entries whose pending set drained
    /// (cascading: the freshly exposed entry may already be satisfied).
    /// Returns whether the stack moved — pushed, parked a lane or popped —
    /// which is when the next pick's choice changes.
    ///
    /// Every call leaves no runnable pending lane of the top entry sitting
    /// at its reconvergence point, so after an issue that
    /// [`keeps_lockstep`] only the issued lanes can newly arrive, and they
    /// moved to one common pc: unless that pc is the top entry's `rpc`
    /// nothing arrives and the per-lane scan is skipped. Such an issue
    /// pushes nothing and exits nobody either. Branches, returns and
    /// blocking ops take the full path, as does every pop.
    pub(crate) fn ipdom_post_issue(
        &mut self,
        image: &DecodedImage,
        (pc, mask): (usize, u64),
        stats: &mut ReconStats,
    ) -> bool {
        let inst = &image.insts[pc];
        let mut moved = false;
        if keeps_lockstep(inst) {
            let at = self.pcs[mask.trailing_zeros() as usize];
            if self.ipdom_stack.last().is_none_or(|top| top.rpc as usize != at) {
                return false;
            }
        } else {
            // When the arms only meet at function exit there is nothing to
            // push: both groups stay schedulable under the current entry
            // and the policy arbitrates between them.
            if let Some((bpc, taken, not_taken)) = self.branch.take() {
                if let Some(rpc) = image.reconvergence_pc(bpc) {
                    let depth = self.depths[taken.trailing_zeros() as usize] as u32;
                    let entry =
                        StackEntry { rpc: rpc as u32, depth, pending: not_taken, arrived: 0 };
                    self.ipdom_stack.push(entry);
                    self.ipdom_stack.push(StackEntry { pending: taken, ..entry });
                    stats.stack_pushes += 2;
                    stats.stack_max_depth =
                        stats.stack_max_depth.max(self.ipdom_stack.len() as u64);
                    moved = true;
                }
            }
            // Only these two exit lanes (entries pushed later never hold
            // a lane that exited earlier).
            if matches!(inst, DecodedInst::Exit | DecodedInst::Return { .. }) {
                for e in self.ipdom_stack.iter_mut() {
                    e.pending &= !self.exited;
                    e.arrived &= !self.exited;
                }
            }
        }
        while let Some(top) = self.ipdom_stack.last_mut() {
            // A lane arrives when it reaches the reconvergence pc at the
            // push-time call depth while still runnable (a blocked lane
            // has not arrived — its pc has not passed the blocking op).
            let at_rpc =
                |l: usize| self.pcs[l] == top.rpc as usize && self.depths[l] == top.depth as usize;
            let arrived = lanes(top.pending & self.runnable)
                .filter(|&l| at_rpc(l))
                .fold(0, |m, l| m | 1 << l);
            top.pending &= !arrived;
            top.arrived |= arrived;
            moved |= arrived != 0;
            if top.pending != 0 {
                break;
            }
            self.ipdom_stack.pop();
            stats.stack_pops += 1;
            moved = true;
        }
        moved
    }

    /// The general warp-split round's candidate scan: normalizes and
    /// re-fuses the splits, then fills `cands` with the ready splits'
    /// `(frontier pc, runnable lanes, index)` in pc order — minus those
    /// deferring inside the re-fusion window — and returns the earliest
    /// wake-up among busy splits with runnable lanes (`u64::MAX`: none).
    fn split_candidates(
        &mut self,
        cycle: u64,
        window: u32,
        cands: &mut Vec<Cand>,
        stats: &mut ReconStats,
    ) -> u64 {
        self.normalize_splits(stats);
        self.fuse_splits(cycle, stats);
        let frontier = |s: &Split| {
            let run = s.mask & self.runnable;
            (run != 0).then(|| (self.pcs[run.trailing_zeros() as usize], run))
        };
        let mut min_busy = u64::MAX;
        cands.clear();
        for (i, s) in self.splits.iter().enumerate() {
            // A fully blocked split waits for a barrier release to revive it.
            let Some((pc, run)) = frontier(s) else { continue };
            if s.busy_until > cycle {
                min_busy = min_busy.min(s.busy_until);
            } else {
                // Normalization left every runnable lane of a split at one
                // pc: the frontier.
                cands.push((pc, run, i));
            }
        }
        // Re-fusion window: give up this slot when a busy split with the
        // same frontier pc becomes ready within `window` cycles — the
        // fusion pass will merge the two then.
        if window > 0 && min_busy != u64::MAX {
            cands.retain(|&(pc, _, _)| {
                let wait_for = self.splits.iter().any(|s| {
                    s.busy_until > cycle
                        && s.busy_until - cycle <= u64::from(window)
                        && frontier(s).is_some_and(|f| f.0 == pc)
                });
                stats.deferrals += u64::from(wait_for);
                !wait_for
            });
        }
        cands.sort_unstable_by_key(|&(pc, _, _)| pc);
        min_busy
    }

    /// Re-establishes the warp-split invariants: exited lanes leave their
    /// splits, empty splits disappear, and a split whose runnable lanes
    /// sit at more than one pc forks into per-pc splits (blocked lanes
    /// stay with the first frontier group).
    fn normalize_splits(&mut self, stats: &mut ReconStats) {
        let live = self.live();
        let mut i = 0;
        while i < self.splits.len() {
            self.splits[i].mask &= live;
            if self.splits[i].mask == 0 {
                self.splits.remove(i);
                continue;
            }
            let run = self.splits[i].mask & self.runnable;
            let at = |pc: usize, m: u64| {
                lanes(m).filter(|&l| self.pcs[l] == pc).fold(0, |m, l| m | 1 << l)
            };
            if run != 0 {
                let mut rest = run & !at(self.pcs[run.trailing_zeros() as usize], run);
                // Fork: the divergent lanes leave, grouped by pc.
                let busy = self.splits[i].busy_until;
                self.splits[i].mask &= !rest;
                while rest != 0 {
                    let m = at(self.pcs[rest.trailing_zeros() as usize], rest);
                    rest &= !m;
                    self.splits.push(Split { mask: m, busy_until: busy });
                    stats.splits += 1;
                }
            }
            i += 1;
        }
        #[cfg(debug_assertions)]
        assert_eq!(self.split_union(), live, "splits do not partition the live lanes");
    }

    /// Debug-build invariant: the splits are disjoint. Returns the lanes
    /// they cover — exactly the live ones right after normalization, plus
    /// lanes that exited since at a hinted round.
    #[cfg(debug_assertions)]
    fn split_union(&self) -> u64 {
        self.splits.iter().fold(0, |union, s| {
            assert_eq!(union & s.mask, 0, "splits overlap");
            union | s.mask
        })
    }

    /// Merges ready splits whose runnable frontiers sit at the same pc —
    /// the re-fusion half of the warp-split model.
    fn fuse_splits(&mut self, cycle: u64, stats: &mut ReconStats) {
        let mut i = 0;
        while i + 1 < self.splits.len() {
            let frontier = |s: &Split| {
                let run = s.mask & self.runnable;
                (run != 0 && s.busy_until <= cycle).then(|| self.pcs[run.trailing_zeros() as usize])
            };
            if let Some(pc) = frontier(&self.splits[i]) {
                let mut j = i + 1;
                while j < self.splits.len() {
                    if frontier(&self.splits[j]) == Some(pc) {
                        let absorbed = self.splits.remove(j);
                        self.splits[i].mask |= absorbed.mask;
                        stats.fusions += 1;
                    } else {
                        j += 1;
                    }
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_and_link;

    fn image_for(src: &str) -> DecodedImage {
        DecodedImage::decode(&parse_and_link(src).expect("kernel parses"))
    }

    /// Finds the pc of the `idx`-th conditional branch in the image.
    fn branch_pc(image: &DecodedImage, idx: usize) -> usize {
        (0..image.len())
            .filter(|&pc| matches!(image.insts[pc], DecodedInst::Branch { .. }))
            .nth(idx)
            .expect("branch exists")
    }

    #[test]
    fn diamond_reconverges_at_join_block() {
        let image = image_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  %r1 = add %r0, 1\n  jmp bb3\n\
             bb2:\n  %r1 = add %r0, 2\n  jmp bb3\n\
             bb3:\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        let rpc = image.reconvergence_pc(br).expect("the arms meet");
        // The rpc is bb3's first pc: the `exit` terminator.
        assert!(matches!(image.insts[rpc], DecodedInst::Exit));
    }

    #[test]
    fn if_then_reconverges_at_fallthrough() {
        let image = image_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  %r1 = add %r0, 1\n  jmp bb2\n\
             bb2:\n  %r2 = add %r0, 3\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        let rpc = image.reconvergence_pc(br).expect("the arms meet");
        // Reconverges at bb2's first instruction.
        assert_eq!(image.origin[rpc].inst, 0);
        assert!(matches!(image.insts[rpc], DecodedInst::Bin { .. }));
    }

    #[test]
    fn loop_back_edge_reconverges_at_loop_exit() {
        let image = image_for(
            "kernel @k(params=1, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r1 = special.tid\n  jmp bb1\n\
             bb1:\n  %r1 = sub %r1, 1\n  brdiv %r1, bb1, bb2\n\
             bb2:\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        let rpc = image.reconvergence_pc(br).expect("the loop exits");
        // The loop branch reconverges at the loop exit block bb2.
        assert!(matches!(image.insts[rpc], DecodedInst::Exit));
    }

    #[test]
    fn divergent_exit_has_no_rpc() {
        let image = image_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  exit\n\
             bb2:\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        assert_eq!(image.reconvergence_pc(br), None);
    }

    #[test]
    fn non_branch_pcs_have_no_rpc() {
        let image = image_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  exit\n}\n",
        );
        for pc in 0..image.len() {
            assert_eq!(image.reconvergence_pc(pc), None);
        }
    }

    #[test]
    fn per_function_tables_are_independent() {
        let image = image_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  call @f(%r0) -> (%r1)\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  jmp bb3\n\
             bb2:\n  jmp bb3\n\
             bb3:\n  exit\n}\n\
             device @f(params=1, regs=4, barriers=0, entry=bb0) {\n\
             bb0:\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  %r1 = add %r0, 1\n  jmp bb3\n\
             bb2:\n  %r1 = add %r0, 2\n  jmp bb3\n\
             bb3:\n  ret %r1\n}\n",
        );
        let kernel_br = branch_pc(&image, 0);
        let callee_br = branch_pc(&image, 1);
        let k_rpc = image.reconvergence_pc(kernel_br).expect("kernel arms meet");
        let f_rpc = image.reconvergence_pc(callee_br).expect("callee arms meet");
        // Each rpc lies inside its own function's pc range.
        assert_eq!(image.origin[k_rpc].func, image.origin[kernel_br].func);
        assert_eq!(image.origin[f_rpc].func, image.origin[callee_br].func);
        assert!(matches!(image.insts[f_rpc], DecodedInst::Return { .. }));
    }

    /// A divergent branch inside a loop that no path leaves: its block has
    /// no post-dominator, so the stack pushes nothing and both arms stay
    /// schedulable under the current entry.
    #[test]
    fn branch_in_a_loop_without_an_exit_has_no_rpc() {
        let image = image_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  brdiv %r0, bb1, bb3\n\
             bb1:\n  %r1 = add %r1, 1\n  brdiv %r0, bb2, bb1\n\
             bb2:\n  jmp bb1\n\
             bb3:\n  exit\n}\n",
        );
        assert_eq!(image.reconvergence_pc(branch_pc(&image, 1)), None);
        // The entry branch's arms meet at the exit block: the arm that
        // enters the loop never reaches an exit, so it constrains nothing.
        let rpc = image.reconvergence_pc(branch_pc(&image, 0)).expect("bb3 post-dominates");
        assert!(matches!(image.insts[rpc], DecodedInst::Exit));
    }
}
