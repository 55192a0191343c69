//! Warp scheduling: the policy that picks which PC-group of runnable
//! lanes issues next, and the straight-line batcher that runs a picked
//! group ahead while that pick provably repeats.
//!
//! Both interpreters group runnable lanes by program counter and
//! delegate the choice to a selection function. The decoded cohort
//! ([`crate::sweep`], every scalar launch at one slot) is bitmask-native:
//! its groups are `(flat pc,
//! u64 lane mask)` pairs, pre-sorted by pc, chosen by
//! [`select_group_mask`] without allocating. The tree-walking oracle
//! ([`crate::reference`]) keeps the original [`select_group`] over
//! `(key, Vec<usize>)` groups with `(func, block, inst)` keys. Flat-pc
//! order equals the tuple order by construction of the image layout,
//! and a property test below pins the two formulations to the same
//! choice for every policy.
//!
//! The seed-sweep cohort ([`crate::sweep`]) picks through the decoded
//! engine's [`WarpCtl::pick_group`] and runs ahead through the same
//! [`run_ahead`]. That pick-equivalence is the invariant the sweep's
//! fork/merge machinery rests on: two sub-cohorts whose control planes
//! are equal are guaranteed to pick identically forever after, so
//! comparing control planes once at a round boundary is a sound merge
//! test. The cohort's masked row operations take a contiguous slot mask
//! as one slice ([`mask_runs`], the contiguous-run twin of [`lanes`]) and
//! walk any other mask slot by slot.

use crate::barrier::WarpCtl;
use crate::config::{ReconvergenceModel, SchedulerPolicy, SimConfig};
use crate::decode::{DecodedImage, DecodedInst};
use crate::metrics::Metrics;
use simt_ir::BarrierOp;

/// Iterates the set lanes of a mask in ascending order.
///
/// `trailing_zeros` plus clear-lowest-bit: the decoded cohort's
/// replacement for walking `Vec<usize>` lane lists. Ascending order is
/// load-bearing — atomics serialize in lane order.
pub(crate) fn lanes(mask: u64) -> Lanes {
    Lanes(mask)
}

/// Iterator over the set bits of a lane mask (see [`lanes`]).
pub(crate) struct Lanes(u64);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

/// Iterates the maximal runs of consecutive set bits of a mask as
/// half-open `(start, end)` ranges, ascending.
///
/// The seed-sweep engine asks whether a slot mask is one run: a masked
/// row operation over a contiguous mask is one counted loop over slices
/// of the slot columns. A full mask yields the single run `(0, 64)`.
pub(crate) fn mask_runs(mask: u64) -> MaskRuns {
    MaskRuns(mask)
}

/// Iterator over maximal contiguous set-bit runs (see [`mask_runs`]).
pub(crate) struct MaskRuns(u64);

impl Iterator for MaskRuns {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.0 == 0 {
            return None;
        }
        let start = self.0.trailing_zeros() as usize;
        // The run length is the number of trailing ones once the run is
        // shifted down to bit 0 (all-ones → 64, only possible when
        // start == 0).
        let len = (!(self.0 >> start)).trailing_zeros() as usize;
        if len >= 64 {
            self.0 = 0;
        } else {
            self.0 &= !(((1u64 << len) - 1) << start);
        }
        Some((start, start + len))
    }
}

/// The runs of adjacent issued lanes that share a key — for the arms
/// that move whole registers, the frame base, so a span's register is
/// `n` adjacent rows. Lanes of one issue sit at one call depth on all
/// measured traffic and the spans are the mask's runs; a run whose lanes
/// differ breaks down as far as single lanes, which is the same loops at
/// `n == 1`.
#[derive(Clone, Copy)]
pub(crate) struct Spans {
    /// Issued lanes not yet yielded.
    mask: u64,
    /// The lanes among them that start a span.
    pub(crate) starts: u64,
}

impl Spans {
    #[inline]
    pub(crate) fn by<K: PartialEq>(mask: u64, key: impl Fn(usize) -> K) -> Spans {
        let runs = Spans::runs(mask).starts;
        let breaks = lanes(mask & !runs).filter(|&l| key(l) != key(l - 1));
        Spans { mask, starts: breaks.fold(runs, |starts, l| starts | 1 << l) }
    }

    /// The spans of lanes that all share the key: the mask's runs.
    #[inline]
    pub(crate) fn runs(mask: u64) -> Spans {
        Spans { mask, starts: mask & !(mask << 1) }
    }

    /// Whether each run of the mask is one span.
    #[inline]
    pub(crate) fn hoisted(&self) -> bool {
        self.starts == Spans::runs(self.mask).starts
    }
}

impl Iterator for Spans {
    /// `(first lane, lane count)`, ascending.
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.starts == 0 {
            return None;
        }
        let lo = self.starts.trailing_zeros() as usize;
        self.starts &= self.starts - 1;
        // The span ends where its mask run does or the next span starts.
        let run = (!(self.mask >> lo)).trailing_zeros() as usize;
        Some((lo, run.min(self.starts.trailing_zeros() as usize - lo)))
    }
}

/// Applies `policy` to mask-form candidate groups and returns the chosen
/// one.
///
/// `groups` must be sorted by pc ascending with unique pcs (the decoded
/// engine's `pick_group` produces them that way), which replaces the
/// sort [`select_group`] performs: `MinPc`/`MaxPc` pick the ends,
/// `Greedy` breaks ties toward the lowest pc, `MostThreads` keeps the
/// first (lowest-pc) group on popcount ties, and `RoundRobin` advances
/// `rr_cursor`. Returns `None` when no lane is runnable. Never
/// allocates.
pub(crate) fn select_group_mask(
    policy: SchedulerPolicy,
    groups: &[(usize, u64)],
    last_lanes: u64,
    rr_cursor: &mut usize,
) -> Option<(usize, u64)> {
    if groups.is_empty() {
        return None;
    }
    debug_assert!(
        groups.windows(2).all(|p| p[0].0 < p[1].0),
        "mask groups must be sorted by pc with unique keys"
    );
    let idx = match policy {
        SchedulerPolicy::Greedy => {
            // Stick with the lanes issued last: pick the group with
            // the largest overlap with them; fresh start → MinPc.
            let mut best = 0;
            let mut best_overlap = 0u32;
            for (i, &(_, mask)) in groups.iter().enumerate() {
                let overlap = (mask & last_lanes).count_ones();
                if overlap > best_overlap {
                    best = i;
                    best_overlap = overlap;
                }
            }
            best
        }
        SchedulerPolicy::MinPc => 0,
        SchedulerPolicy::MaxPc => groups.len() - 1,
        SchedulerPolicy::MostThreads => {
            let mut best = 0;
            for (i, &(_, mask)) in groups.iter().enumerate() {
                if mask.count_ones() > groups[best].1.count_ones() {
                    best = i;
                }
            }
            best
        }
        SchedulerPolicy::RoundRobin => {
            let idx = *rr_cursor % groups.len();
            *rr_cursor = rr_cursor.wrapping_add(1);
            idx
        }
    };
    Some(groups[idx])
}

/// Cap on how many extra issues one scheduling slot may run ahead.
/// Bounds how far the clock can overshoot the per-round `max_cycles`
/// check (the error raised is identical either way).
pub(crate) const BATCH_LIMIT: usize = 64;

/// Ops the straight-line batcher may run ahead through. They must be
/// warp-local (no global-memory traffic another warp could observe),
/// keep the warp converged (every lane moves to the same next pc), and
/// leave every lane runnable — so the next scheduling round would
/// provably re-pick the same group.
///
/// Barrier bookkeeping qualifies for `join`/`rejoin`/`arrived`: they
/// mutate only this warp's participation masks and advance every lane,
/// and — unlike `cancel`/`copy`/`wait` — never run a release check, so
/// no blocked lane can become runnable mid-batch.
pub(crate) fn is_warp_local(inst: &DecodedInst) -> bool {
    matches!(
        inst,
        DecodedInst::Bin { .. }
            | DecodedInst::Un { .. }
            | DecodedInst::Mov { .. }
            | DecodedInst::Sel { .. }
            | DecodedInst::Special { .. }
            | DecodedInst::Rng { .. }
            | DecodedInst::SeedRng { .. }
            | DecodedInst::Skip
            | DecodedInst::Jump { .. }
            | DecodedInst::Vote { .. }
            | DecodedInst::Barrier(
                BarrierOp::Join(_) | BarrierOp::Rejoin(_) | BarrierOp::ArrivedCount { .. }
            )
    )
}

/// Whether an issued instruction leaves every lane of its group at one
/// common next pc with statuses untouched — the precondition for the
/// straight-line batcher to trust `pcs[lead]` for the whole group.
/// Branches (lanes may split), returns (per-lane call sites), and
/// anything that blocks or exits lanes disqualify the slot.
pub(crate) fn keeps_lockstep(inst: &DecodedInst) -> bool {
    is_warp_local(inst)
        || matches!(
            inst,
            DecodedInst::Load { .. }
                | DecodedInst::Store { .. }
                | DecodedInst::AtomicAdd { .. }
                | DecodedInst::Call { .. }
        )
}

/// Whether a pick advances the RoundRobin cursor — and so whether a
/// hinted round or a batched issue, which stand in for one, must.
/// Every pick goes through the policy except under compacting
/// warp-split, which issues every ready split without arbitration.
#[inline]
pub(crate) fn pick_bumps_rr(cfg: &SimConfig) -> bool {
    cfg.scheduler == SchedulerPolicy::RoundRobin
        && !matches!(cfg.recon, ReconvergenceModel::WarpSplit { compact: true, .. })
}

/// A straight-line batch so far: the group's pc, which its lanes hold only
/// once the batch ends, and its issues with their summed `cost.max(1)`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Run {
    pub(crate) at: usize,
    pub(crate) issues: u64,
    pub(crate) weight: u64,
    pub(crate) roi_weight: u64,
}

/// One engine's side of [`run_ahead`] for one warp.
pub(crate) trait Batcher {
    type Error;
    /// The warp's control plane, the pcs of the groups its last pick
    /// did not choose, and where the batch is recorded.
    fn state(&mut self) -> (&mut WarpCtl, &[usize], &mut Metrics);
    /// Executes `inst` (at `run.at`) for `mask` after the batch `run` and
    /// returns its cost and the group's next pc: `None` when the issue
    /// split the group or the engine ends the batch, pcs written. Returns
    /// `Ok(None)`, issuing nothing, when the engine stops the batch first.
    fn issue(&mut self, mask: u64, inst: &DecodedInst, run: &Run) -> Issued<Self::Error>;
}

/// What [`Batcher::issue`] returns.
pub(crate) type Issued<E> = Result<Option<(u32, Option<usize>)>, E>;

/// Straight-line batching, shared by both engines and every
/// reconvergence model: after warp `w` issued `pc` for `mask` in a round
/// of its own, the same lanes would be re-picked unchanged while they
/// execute warp-local ops (no memory traffic, no control divergence, no
/// status changes), so they run ahead within this slot. Warps only
/// interact through global memory, so cross-warp interleaving is
/// unobservable for these ops.
///
/// The gate is the one condition that proves the re-pick anywhere: the
/// issue kept its lanes in lockstep with statuses untouched, and `mask`
/// is the warp's whole `schedulable` set, so there is no second path to
/// arbitrate — the barrier file's converged warp, the IPDOM top entry's
/// pending lanes at one pc, warp-split's sole split with runnable lanes
/// (every other split is fully blocked and stays so: nothing that runs a
/// release check batches). A *divergent* group also qualifies under the
/// barrier file with Greedy: its full overlap with `last_lanes` beats
/// every disjoint group's zero overlap, so Greedy provably re-picks it —
/// until its pc lands on another group's pc, where the unbatched
/// scheduler would merge the two (the merge guard; the other groups'
/// lanes are frozen for the whole batch, so their pcs are stable). Other
/// policies re-rank groups as pcs move.
///
/// The batch carries the group's pc and its accounting in a [`Run`]:
/// the lanes' pcs are written once, when it ends, and
/// [`Metrics::record_issues`] records it at once — exact, as batched ops
/// never touch a status, so the mask and the stall sample hold
/// throughout. `last_lanes` re-sticks to the same mask; the RoundRobin
/// cursor moves wherever each skipped pick would have moved it.
///
/// Returns the batch and whether its group ended intact — not split,
/// merged or stopped by the engine — so that `(run.at, mask)` is what
/// the next pick provably returns.
#[inline(always)]
pub(crate) fn run_ahead<B: Batcher>(
    b: &mut B,
    cfg: &SimConfig,
    image: &DecodedImage,
    (w, pc, mask, schedulable): (usize, usize, u64, u64),
) -> Result<(Run, bool), B::Error> {
    let greedy = cfg.scheduler == SchedulerPolicy::Greedy
        && matches!(cfg.recon, ReconvergenceModel::BarrierFile);
    if !keeps_lockstep(&image.insts[pc]) || !(mask == schedulable || greedy) {
        return Ok((Run::default(), false));
    }
    let (bump_rr, ipdom) = (pick_bumps_rr(cfg), cfg.recon == ReconvergenceModel::IpdomStack);
    let (ctl, ..) = b.state();
    let waiting = ctl.waiting.count_ones();
    let mut run = Run { at: ctl.pcs[mask.trailing_zeros() as usize], ..Run::default() };
    // Whether an issue ended the batch (`None`), its lanes' pcs written.
    let mut ended = false;
    for _ in 0..BATCH_LIMIT {
        let inst = &image.insts[run.at];
        // Branches batch too — they are warp-local and infallible — but
        // the group survives the issue only if every lane took the same
        // direction.
        let batchable = matches!(inst, DecodedInst::Branch { .. }) || is_warp_local(inst);
        if b.state().1.contains(&run.at) || !batchable {
            break;
        }
        let Some((cost, mut next)) = b.issue(mask, inst, &run)? else { break };
        // Under the IPDOM stack an issue that split the group (`None`) or
        // brought it to the top entry's reconvergence pc runs the stack's
        // hook, and ends the batch if the stack moved.
        if ipdom {
            let (ctl, _, metrics) = b.state();
            if next.is_none() || next == ctl.ipdom_stack.last().map(|e| e.rpc as usize) {
                if let Some(at) = next {
                    ctl.move_to(mask, at);
                }
                if ctl.ipdom_post_issue(image, (run.at, mask), &mut metrics.recon) {
                    next = None;
                }
            }
        }
        if bump_rr {
            let rr = &mut b.state().0.rr_cursor;
            *rr = rr.wrapping_add(1);
        }
        let c = u64::from(cost.max(1));
        run.issues += 1;
        run.weight += c;
        run.roi_weight += if image.roi[run.at] { c } else { 0 };
        // After `None` the next real round re-groups (warp-split:
        // re-normalizes) and re-picks exactly as unbatched execution would.
        (run.at, ended) = (next.unwrap_or(run.at), next.is_none());
        if ended {
            break;
        }
    }
    let (ctl, other_pcs, metrics) = b.state();
    if run.issues > 0 && !ended {
        ctl.move_to(mask, run.at);
    }
    metrics.record_issues(w, mask, run.issues, run.weight, run.roi_weight, waiting);
    // A group whose pc landed on another group's is a pending merge with
    // that frozen group: the next pick must re-group.
    Ok((run, !ended && !other_pcs.contains(&run.at)))
}

/// Applies `policy` to the candidate groups and returns the chosen one.
///
/// Groups are sorted by key first, so `MinPc`/`MaxPc` pick the ends,
/// `Greedy` breaks ties toward the lowest PC, and `MostThreads` keeps
/// the first (lowest-PC) group on size ties. `rr_cursor` is advanced
/// when the `RoundRobin` policy is used. Returns `None` when no lane is
/// runnable.
pub(crate) fn select_group<K: Ord + Copy>(
    policy: SchedulerPolicy,
    mut groups: Vec<(K, Vec<usize>)>,
    last_lanes: u64,
    rr_cursor: &mut usize,
) -> Option<(K, Vec<usize>)> {
    if groups.is_empty() {
        return None;
    }
    groups.sort_by_key(|(k, _)| *k);
    let idx = match policy {
        SchedulerPolicy::Greedy => {
            // Stick with the lanes issued last: pick the group with
            // the largest overlap with them; fresh start → MinPc.
            let mut best = 0;
            let mut best_overlap = 0u32;
            for (i, (_, lanes)) in groups.iter().enumerate() {
                let mut mask = 0u64;
                for &l in lanes {
                    mask |= 1 << l;
                }
                let overlap = (mask & last_lanes).count_ones();
                if overlap > best_overlap {
                    best = i;
                    best_overlap = overlap;
                }
            }
            best
        }
        SchedulerPolicy::MinPc => 0,
        SchedulerPolicy::MaxPc => groups.len() - 1,
        SchedulerPolicy::MostThreads => {
            let mut best = 0;
            for (i, (_, lanes)) in groups.iter().enumerate() {
                if lanes.len() > groups[best].1.len() {
                    best = i;
                }
            }
            best
        }
        SchedulerPolicy::RoundRobin => {
            let idx = *rr_cursor % groups.len();
            *rr_cursor = rr_cursor.wrapping_add(1);
            idx
        }
    };
    Some(groups.swap_remove(idx))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups() -> Vec<(usize, Vec<usize>)> {
        // Deliberately unsorted: select_group must sort by key itself.
        vec![(7, vec![3]), (2, vec![0, 1]), (5, vec![2, 4, 5])]
    }

    #[test]
    fn min_and_max_pc_pick_the_ends() {
        let mut rr = 0;
        let (k, _) = select_group(SchedulerPolicy::MinPc, groups(), 0, &mut rr).unwrap();
        assert_eq!(k, 2);
        let (k, _) = select_group(SchedulerPolicy::MaxPc, groups(), 0, &mut rr).unwrap();
        assert_eq!(k, 7);
    }

    #[test]
    fn greedy_follows_last_lanes_and_defaults_to_min_pc() {
        let mut rr = 0;
        // Lane 3 issued last → stick with group at PC 7.
        let (k, _) = select_group(SchedulerPolicy::Greedy, groups(), 1 << 3, &mut rr).unwrap();
        assert_eq!(k, 7);
        // No overlap anywhere → lowest PC.
        let (k, _) = select_group(SchedulerPolicy::Greedy, groups(), 1 << 9, &mut rr).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn most_threads_prefers_the_biggest_group() {
        let mut rr = 0;
        let (k, lanes) = select_group(SchedulerPolicy::MostThreads, groups(), 0, &mut rr).unwrap();
        assert_eq!((k, lanes.len()), (5, 3));
    }

    #[test]
    fn round_robin_cycles_in_key_order() {
        let mut rr = 0;
        let picks: Vec<usize> = (0..4)
            .map(|_| select_group(SchedulerPolicy::RoundRobin, groups(), 0, &mut rr).unwrap().0)
            .collect();
        assert_eq!(picks, vec![2, 5, 7, 2]);
    }

    #[test]
    fn empty_groups_yield_none() {
        let mut rr = 0;
        let g: Vec<(usize, Vec<usize>)> = Vec::new();
        assert!(select_group(SchedulerPolicy::Greedy, g, 0, &mut rr).is_none());
        assert!(select_group_mask(SchedulerPolicy::Greedy, &[], 0, &mut rr).is_none());
    }

    #[test]
    fn lanes_iterates_set_bits_ascending() {
        assert_eq!(lanes(0).collect::<Vec<_>>(), Vec::<usize>::new());
        assert_eq!(lanes(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(lanes(1 << 63).collect::<Vec<_>>(), vec![63]);
        assert_eq!(lanes(u64::MAX).count(), 64);
    }

    #[test]
    fn mask_runs_yields_maximal_contiguous_ranges() {
        assert_eq!(mask_runs(0).collect::<Vec<_>>(), Vec::<(usize, usize)>::new());
        assert_eq!(mask_runs(0b1).collect::<Vec<_>>(), vec![(0, 1)]);
        assert_eq!(mask_runs(0b1011).collect::<Vec<_>>(), vec![(0, 2), (3, 4)]);
        assert_eq!(mask_runs(u64::MAX).collect::<Vec<_>>(), vec![(0, 64)]);
        assert_eq!(mask_runs(1 << 63).collect::<Vec<_>>(), vec![(63, 64)]);
        assert_eq!(mask_runs(0b111 << 61).collect::<Vec<_>>(), vec![(61, 64)]);
        assert_eq!(mask_runs(u64::MAX ^ (1 << 32)).collect::<Vec<_>>(), vec![(0, 32), (33, 64)]);
    }

    #[test]
    fn spans_are_the_mask_runs_split_where_the_key_changes() {
        let spans = |mask, key: &dyn Fn(usize) -> usize| Spans::by(mask, key).collect::<Vec<_>>();
        assert_eq!(spans(0, &|_| 0), vec![]);
        assert_eq!(spans(0b1011, &|_| 0), vec![(0, 2), (3, 1)]);
        assert_eq!(spans(u64::MAX, &|_| 7), vec![(0, 64)]);
        assert_eq!(spans(u64::MAX, &|l| l / 31), vec![(0, 31), (31, 31), (62, 2)]);
        assert_eq!(spans(0b0111_0110, &|l| l % 2), vec![(1, 1), (2, 1), (4, 1), (5, 1), (6, 1)]);
        assert_eq!(spans(1 << 63 | 0b11, &|l| usize::from(l == 1)), vec![(0, 1), (1, 1), (63, 1)]);
        // Hoisted exactly when no run is split.
        assert_eq!(Spans::by(0b1011, |_| 0).starts, 0b1001);
        assert_ne!(Spans::by(0b1011, |l| l).starts, 0b1001);
    }

    #[test]
    fn mask_runs_covers_exactly_the_set_bits() {
        // Runs must partition the mask: same bits, no overlap, ascending.
        for mask in [0u64, 1, 0xF0F0_F0F0_F0F0_F0F0, 0x8000_0000_0000_0001, 0x5555, u64::MAX] {
            let mut rebuilt = 0u64;
            let mut prev_end = 0usize;
            for (lo, hi) in mask_runs(mask) {
                assert!(lo < hi && hi <= 64, "bad run ({lo}, {hi}) for {mask:#x}");
                assert!(lo >= prev_end, "runs out of order for {mask:#x}");
                prev_end = hi;
                for b in lo..hi {
                    rebuilt |= 1 << b;
                }
            }
            assert_eq!(rebuilt, mask);
        }
    }

    fn to_mask(lanes: &[usize]) -> u64 {
        lanes.iter().fold(0u64, |m, &l| m | 1 << l)
    }

    /// Mask groups in the form `pick_group` produces: sorted by key.
    fn mask_groups(groups: &[(usize, Vec<usize>)]) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = groups.iter().map(|(k, ls)| (*k, to_mask(ls))).collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    #[test]
    fn mask_selection_matches_vec_selection_on_fixtures() {
        for policy in SchedulerPolicy::ALL {
            for last in [0u64, 1 << 3, (1 << 2) | (1 << 4), u64::MAX] {
                let mut rr_vec = 5;
                let mut rr_mask = 5;
                let vec_pick = select_group(policy, groups(), last, &mut rr_vec).unwrap();
                let mask_pick =
                    select_group_mask(policy, &mask_groups(&groups()), last, &mut rr_mask).unwrap();
                assert_eq!(mask_pick.0, vec_pick.0, "{policy:?} key, last={last:#x}");
                assert_eq!(mask_pick.1, to_mask(&vec_pick.1), "{policy:?} lanes");
                assert_eq!(rr_mask, rr_vec, "{policy:?} cursor");
            }
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Lane pc in `0..IDLE` means runnable at that pc; `IDLE` marks
        /// a non-runnable lane.
        const IDLE: usize = 6;

        /// Random warp occupancy: each lane is either idle or parked at
        /// one of a handful of pcs. Grouping mirrors `pick_group`: the
        /// vec form collects lanes in ascending order per first-seen
        /// key, the mask form is key-sorted `(pc, mask)`.
        fn occupancy() -> impl Strategy<Value = Vec<usize>> {
            proptest::collection::vec(0usize..IDLE + 1, 1..65)
        }

        fn vec_groups(occ: &[usize]) -> Vec<(usize, Vec<usize>)> {
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (lane, &pc) in occ.iter().enumerate() {
                if pc == IDLE {
                    continue;
                }
                match groups.iter_mut().find(|(k, _)| *k == pc) {
                    Some((_, lanes)) => lanes.push(lane),
                    None => groups.push((pc, vec![lane])),
                }
            }
            groups
        }

        proptest! {
            /// The satellite contract: for every scheduler policy, the
            /// mask formulation picks the same group (same key, same
            /// lane set — hence same popcount) as the original
            /// `Vec<usize>` formulation, and advances the round-robin
            /// cursor identically.
            #[test]
            fn mask_and_vec_formulations_agree(
                occ in occupancy(),
                last_lanes in any::<u64>(),
                rr_start in any::<usize>(),
            ) {
                let vg = vec_groups(&occ);
                let mg = mask_groups(&vg);
                for policy in SchedulerPolicy::ALL {
                    let mut rr_vec = rr_start;
                    let mut rr_mask = rr_start;
                    let vec_pick = select_group(policy, vg.clone(), last_lanes, &mut rr_vec);
                    let mask_pick = select_group_mask(policy, &mg, last_lanes, &mut rr_mask);
                    prop_assert_eq!(rr_vec, rr_mask, "cursor diverged under {:?}", policy);
                    match (vec_pick, mask_pick) {
                        (None, None) => {}
                        (Some((vk, vl)), Some((mk, mm))) => {
                            prop_assert_eq!(vk, mk, "key diverged under {:?}", policy);
                            prop_assert_eq!(
                                to_mask(&vl), mm, "lane set diverged under {:?}", policy
                            );
                            prop_assert_eq!(
                                vl.len() as u32, mm.count_ones(),
                                "popcount diverged under {:?}", policy
                            );
                        }
                        (v, m) => prop_assert!(
                            false, "one formulation empty under {:?}: {:?} vs {:?}", policy, v, m
                        ),
                    }
                }
            }
        }
    }
}
