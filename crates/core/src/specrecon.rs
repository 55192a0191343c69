//! The Speculative Reconvergence synchronization algorithm (§4.2) and the
//! soft-barrier lowering (§4.6).
//!
//! For each label prediction (§4.1) the pass:
//!
//! 1. computes the prediction region (blocks that can still reach the
//!    predicted reconvergence point);
//! 2. inserts `JoinBarrier(b0)` at the region start and `WaitBarrier(b0)`
//!    at the predicted point;
//! 3. runs the joined-barrier (Eq. 1) and barrier-liveness (Eq. 2)
//!    analyses to place `RejoinBarrier(b0)` after waits that will wait
//!    again (loops) and `CancelBarrier(b0)` on region-escape targets, so no
//!    thread is ever awaited after leaving the region;
//! 4. adds an orthogonal region-exit barrier: `Join` at the region start
//!    and `Wait` at the first post-dominator outside the region, so the
//!    code after the region runs convergently again.
//!
//! When the prediction carries a threshold, step 2 instead lowers a *soft
//! barrier* (Figure 6): arriving threads join a counting barrier `bCount`
//! and block on a mask register `bTemp` initialized to the full in-region
//! membership `b0`; the thread whose arrival meets the threshold copies
//! `bCount` into `bTemp`, shrinking the release condition to exactly the
//! arrived set, which releases the group together. Threads leaving the
//! region withdraw from all three masks, so an unsatisfiable threshold
//! degrades to "wait for everyone still in the region" rather than
//! deadlock.

use crate::error::PassError;
use crate::region::{compute_region, Region};
use simt_analysis::{BarrierJoined, BarrierLiveness, FunctionAnalyses};
use simt_ir::{
    BarrierId, BarrierOp, BinOp, BlockId, Function, Inst, Operand, PredictTarget, Terminator, Value,
};

/// Barrier registers created for one soft-barrier lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SoftBarriers {
    /// Counts arrivals at the reconvergence point.
    pub count: BarrierId,
    /// The mask register threads actually wait on.
    pub temp: BarrierId,
}

/// What the pass did for one prediction.
#[derive(Clone, Debug)]
pub struct PredictionReport {
    /// Resolved reconvergence point.
    pub target: BlockId,
    /// Region start.
    pub region_start: BlockId,
    /// The main speculative barrier (`b0`; the membership mask for soft
    /// barriers).
    pub main_barrier: BarrierId,
    /// The orthogonal region-exit barrier, when the region has an exit
    /// convergence point.
    pub exit_barrier: Option<(BarrierId, BlockId)>,
    /// Soft-barrier registers, when a threshold was requested.
    pub soft: Option<SoftBarriers>,
    /// Blocks that received a `RejoinBarrier`.
    pub rejoins: Vec<BlockId>,
    /// Blocks that received `CancelBarrier`s (region-escape targets).
    pub cancels: Vec<BlockId>,
}

/// Report for all label predictions of a function.
#[derive(Clone, Debug, Default)]
pub struct SpecReport {
    /// One entry per processed prediction, in order.
    pub predictions: Vec<PredictionReport>,
}

impl SpecReport {
    /// All barrier registers this pass created (used by deconfliction to
    /// tell speculative barriers from PDOM barriers).
    pub fn barriers(&self) -> Vec<BarrierId> {
        let mut out = Vec::new();
        for p in &self.predictions {
            out.push(p.main_barrier);
            if let Some((b, _)) = p.exit_barrier {
                out.push(b);
            }
            if let Some(s) = p.soft {
                out.push(s.count);
                out.push(s.temp);
            }
        }
        out
    }

    /// Registers belonging to soft-barrier lowerings: the membership mask
    /// plus its count/temp auxiliaries. Cancel-based deconfliction cannot
    /// arbitrate conflicts that touch these — the per-round re-arm
    /// (`bcopy temp, main`) re-snapshots the membership mask and would
    /// resurrect a deconfliction cancel, leaving a straggler waiting on
    /// lanes that withdrew. Such conflicts are irreducible.
    pub fn soft_registers(&self) -> Vec<BarrierId> {
        let mut out = Vec::new();
        for p in &self.predictions {
            if let Some(s) = p.soft {
                out.push(p.main_barrier);
                out.push(s.count);
                out.push(s.temp);
            }
        }
        out
    }
}

/// Applies the §4.2 synchronization algorithm to every *label* prediction
/// of `func`. Interprocedural (function-target) predictions are handled by
/// [`crate::interproc`] and ignored here.
///
/// # Errors
///
/// Returns [`PassError::BadPrediction`] if a prediction's label does not
/// exist or its reconvergence point is unreachable from the region start.
pub fn apply_speculative(
    func: &mut Function,
    fa: &mut FunctionAnalyses,
    warp_width: u32,
) -> Result<SpecReport, PassError> {
    let mut report = SpecReport::default();
    let predictions = func.predictions.clone();
    for p in &predictions {
        let label = match &p.target {
            PredictTarget::Label(l) => l.clone(),
            PredictTarget::Function(_) => continue,
        };
        let target = func.block_by_label(&label).ok_or_else(|| {
            PassError::BadPrediction(format!("@{}: no block labelled `{label}`", func.name))
        })?;
        let pr = apply_one(func, fa, p.region_start, target, p.threshold, warp_width)
            .map_err(|m| PassError::BadPrediction(format!("@{}: {m}", func.name)))?;
        report.predictions.push(pr);
    }
    Ok(report)
}

fn apply_one(
    func: &mut Function,
    fa: &mut FunctionAnalyses,
    region_start: BlockId,
    target: BlockId,
    threshold: Option<u32>,
    warp_width: u32,
) -> Result<PredictionReport, String> {
    let region = compute_region(func, fa, region_start, &[target]);
    if !region.blocks.contains(target.index()) {
        return Err(format!(
            "reconvergence point {target} is not reachable from region start {region_start}"
        ));
    }
    if region_start == target {
        return Err(format!("region start and reconvergence point coincide at {target}"));
    }

    let b0 = func.alloc_barrier();
    let mut rep = PredictionReport {
        target,
        region_start,
        main_barrier: b0,
        exit_barrier: None,
        soft: None,
        rejoins: Vec::new(),
        cancels: Vec::new(),
    };

    // (2) Join at the region start.
    func.blocks[region_start].insts.push(Inst::Barrier(BarrierOp::Join(b0)));

    let effective_threshold = threshold.filter(|&t| t > 1 && t < warp_width);
    match effective_threshold {
        None => {
            // Hard barrier: wait at the reconvergence point.
            func.blocks[target].insts.insert(0, Inst::Barrier(BarrierOp::Wait(b0)));

            // (3) Rejoin/Cancel placement from the two dataflow analyses.
            let live = BarrierLiveness::analyze(func, fa);

            // Rejoin right after each Wait(b0) whose barrier is live again
            // afterwards (the loop case, Figure 4(d)).
            let mut rejoin_sites: Vec<(BlockId, usize)> = Vec::new();
            for b in func.blocks.ids() {
                for (i, inst) in func.blocks[b].insts.iter().enumerate() {
                    if *inst == Inst::Barrier(BarrierOp::Wait(b0))
                        && live.live_after(func, b, i).contains(b0.index())
                    {
                        rejoin_sites.push((b, i));
                    }
                }
            }
            for &(b, i) in rejoin_sites.iter().rev() {
                func.blocks[b].insts.insert(i + 1, Inst::Barrier(BarrierOp::Rejoin(b0)));
                rep.rejoins.push(b);
            }

            // Cancel on every region-escape target whose source still has
            // the barrier joined. The joined analysis must run *after* the
            // rejoins above: a thread that waited and rejoined holds the
            // barrier again, so escape paths downstream of the wait still
            // need their cancel (Figure 4(d) has both BB3's Rejoin and
            // BB5's Cancel).
            let joined = BarrierJoined::analyze(func, fa);
            let mut cancel_targets: Vec<BlockId> = Vec::new();
            for &(from, to) in &region.escape_edges {
                if joined.joined_out(from).contains(b0.index()) && !cancel_targets.contains(&to) {
                    cancel_targets.push(to);
                }
            }
            for &y in &cancel_targets {
                func.blocks[y].insts.insert(0, Inst::Barrier(BarrierOp::Cancel(b0)));
                rep.cancels.push(y);
            }
        }
        Some(t) => {
            let soft = lower_soft_barrier(func, &region, b0, target, t);
            rep.cancels = soft.1;
            rep.soft = Some(soft.0);
        }
    }

    // (4) Orthogonal region-exit barrier.
    if let Some(exit_conv) = region.exit_convergence {
        let bexit = func.alloc_barrier();
        func.blocks[region_start].insts.push(Inst::Barrier(BarrierOp::Join(bexit)));
        // The wait goes after any cancels already at the exit block, so
        // escaping threads first withdraw from the speculative barrier and
        // only then converge.
        let pos = func.blocks[exit_conv]
            .insts
            .iter()
            .take_while(|i| matches!(i, Inst::Barrier(BarrierOp::Cancel(_))))
            .count();
        func.blocks[exit_conv].insts.insert(pos, Inst::Barrier(BarrierOp::Wait(bexit)));
        rep.exit_barrier = Some((bexit, exit_conv));
    }

    Ok(rep)
}

/// Lowers the soft barrier of Figure 6 at `target` with threshold `t`.
/// Returns the created barrier registers and the blocks that received
/// escape cancels.
fn lower_soft_barrier(
    func: &mut Function,
    region: &Region,
    b_in: BarrierId,
    target: BlockId,
    t: u32,
) -> (SoftBarriers, Vec<BlockId>) {
    let b_count = func.alloc_barrier();
    let b_temp = func.alloc_barrier();

    // Region start: remember the full membership mask in bTemp.
    func.blocks[region.start].insts.push(Inst::Barrier(BarrierOp::Copy { dst: b_temp, src: b_in }));

    // Split the reconvergence block: its original content moves to a new
    // `post` block; `target` keeps its label and becomes the barrier
    // prologue.
    let post = func.add_block(None);
    let original_insts = std::mem::take(&mut func.blocks[target].insts);
    let original_term = std::mem::replace(&mut func.blocks[target].term, Terminator::Exit);
    let was_roi = func.blocks[target].roi;
    func.blocks[target].roi = false;
    func.blocks[post].insts = original_insts;
    func.blocks[post].term = original_term;
    func.blocks[post].roi = was_roi;

    let wait_side = func.add_block(None);
    let trip_side = func.add_block(None);

    let n = func.alloc_reg();
    let p = func.alloc_reg();
    let prologue = &mut func.blocks[target];
    prologue.insts.push(Inst::Barrier(BarrierOp::Join(b_count)));
    prologue.insts.push(Inst::Barrier(BarrierOp::ArrivedCount { dst: n, bar: b_count }));
    prologue.insts.push(Inst::Bin {
        op: BinOp::Lt,
        dst: p,
        lhs: Operand::Reg(n),
        rhs: Operand::Imm(Value::I64(i64::from(t))),
    });
    prologue.term = Terminator::Branch {
        cond: Operand::Reg(p),
        then_bb: wait_side,
        else_bb: trip_side,
        divergent: true,
    };

    // Threshold not yet met: block on the mask register.
    func.blocks[wait_side].insts.push(Inst::Barrier(BarrierOp::Wait(b_temp)));
    func.blocks[wait_side].term = Terminator::Jump(post);

    // Threshold met: shrink the release mask to the arrived set, then
    // block — which releases the whole arrived set together.
    func.blocks[trip_side].insts.push(Inst::Barrier(BarrierOp::Copy { dst: b_temp, src: b_count }));
    func.blocks[trip_side].insts.push(Inst::Barrier(BarrierOp::Wait(b_temp)));
    func.blocks[trip_side].term = Terminator::Jump(post);

    // After release: leave the counting barrier and re-arm the mask
    // register for the next round.
    func.blocks[post].insts.insert(0, Inst::Barrier(BarrierOp::Cancel(b_count)));
    func.blocks[post].insts.insert(1, Inst::Barrier(BarrierOp::Copy { dst: b_temp, src: b_in }));

    // Escaping threads withdraw from every soft mask so stragglers can
    // still release.
    let mut cancel_targets: Vec<BlockId> = Vec::new();
    for &(_, to) in &region.escape_edges {
        if !cancel_targets.contains(&to) {
            cancel_targets.push(to);
        }
    }
    for &y in &cancel_targets {
        let insts = &mut func.blocks[y].insts;
        insts.insert(0, Inst::Barrier(BarrierOp::Cancel(b_in)));
        insts.insert(1, Inst::Barrier(BarrierOp::Cancel(b_temp)));
        insts.insert(2, Inst::Barrier(BarrierOp::Cancel(b_count)));
    }

    (SoftBarriers { count: b_count, temp: b_temp }, cancel_targets)
}

/// Finds the (block, index) of the first `WaitBarrier(barrier)` in
/// `func` — a convenience for tests and tools inspecting pass output.
pub fn find_wait(func: &Function, barrier: BarrierId) -> Option<(BlockId, usize)> {
    for b in func.blocks.ids() {
        for (i, inst) in func.blocks[b].insts.iter().enumerate() {
            if *inst == Inst::Barrier(BarrierOp::Wait(barrier)) {
                return Some((b, i));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{parse_module, Module};
    use simt_sim::{run, Launch, SimConfig};

    /// Listing 1: loop, divergent condition, expensive then-block labelled
    /// L1, prediction region starting at entry.
    fn listing1(threshold: Option<u32>) -> Function {
        let th = threshold.map_or(String::new(), |t| format!(" threshold={t}"));
        let src = format!(
            r#"
kernel @listing1(params=0, regs=4, barriers=0, entry=bb0) {{
  predict bb0 -> label L1{th}
bb0:
  %r2 = mov 0
  jmp bb1
bb1:
  %r0 = rng.unit
  %r1 = lt %r0, 0.2f
  brdiv %r1, bb2, bb3
bb2 (label=L1, roi):
  work 40
  jmp bb3
bb3:
  %r2 = add %r2, 1
  %r1 = lt %r2, 20
  brdiv %r1, bb1, bb4
bb4:
  exit
}}
"#
        );
        let m = parse_module(&src).unwrap();
        let f = m.functions.iter().next().unwrap().1.clone();
        f
    }

    #[test]
    fn listing1_placement_matches_figure_4d() {
        let mut f = listing1(None);
        let report = apply_speculative(&mut f, &mut FunctionAnalyses::default(), 32).unwrap();
        assert_eq!(report.predictions.len(), 1);
        let p = &report.predictions[0];
        let b0 = p.main_barrier;

        // Join at region start (bb0).
        assert!(f.blocks[BlockId(0)].insts.contains(&Inst::Barrier(BarrierOp::Join(b0))));
        // Wait then Rejoin at L1 (bb2) — Figure 4(d)'s BB3.
        let l1 = &f.blocks[BlockId(2)].insts;
        let wait_at = l1.iter().position(|i| *i == Inst::Barrier(BarrierOp::Wait(b0))).unwrap();
        assert_eq!(l1[wait_at + 1], Inst::Barrier(BarrierOp::Rejoin(b0)));
        assert_eq!(p.rejoins, vec![BlockId(2)]);
        // Cancel at the region-escape target (bb4) — Figure 4(d)'s BB5.
        assert_eq!(p.cancels, vec![BlockId(4)]);
        assert!(f.blocks[BlockId(4)].insts.contains(&Inst::Barrier(BarrierOp::Cancel(b0))));
        // Orthogonal region-exit barrier: join at bb0, wait at bb4, and
        // the wait comes after the cancel.
        let (bexit, at) = p.exit_barrier.unwrap();
        assert_eq!(at, BlockId(4));
        let exit_insts = &f.blocks[BlockId(4)].insts;
        let cancel_pos =
            exit_insts.iter().position(|i| *i == Inst::Barrier(BarrierOp::Cancel(b0))).unwrap();
        let wait_pos =
            exit_insts.iter().position(|i| *i == Inst::Barrier(BarrierOp::Wait(bexit))).unwrap();
        assert!(cancel_pos < wait_pos, "cancel must precede the exit wait");
    }

    #[test]
    fn listing1_executes_expensive_block_convergently() {
        let mut f = listing1(None);
        apply_speculative(&mut f, &mut FunctionAnalyses::default(), 32).unwrap();
        let mut m = Module::new();
        m.add_function(f);
        simt_ir::assert_verified(&m);
        let out = run(&m, &SimConfig::default(), &Launch::new("listing1", 2)).unwrap();
        let roi = out.metrics.roi_simt_efficiency();
        // Iteration Delay collects threads across iterations. With only 20
        // iterations at p=0.2 the per-thread visit counts are binomial, so
        // the later rounds thin out — but efficiency should still be far
        // above the PDOM baseline (~0.2 for this kernel; see the pdom
        // tests).
        assert!(roi > 0.5, "expected much-improved ROI convergence, got {roi}");
    }

    #[test]
    fn find_wait_locates_the_speculative_wait() {
        let mut f = listing1(None);
        let report = apply_speculative(&mut f, &mut FunctionAnalyses::default(), 32).unwrap();
        let b0 = report.predictions[0].main_barrier;
        let (block, idx) = find_wait(&f, b0).expect("wait exists");
        assert_eq!(block, BlockId(2));
        assert_eq!(f.blocks[block].insts[idx], Inst::Barrier(BarrierOp::Wait(b0)));
        assert_eq!(find_wait(&f, BarrierId(99)), None);
    }

    #[test]
    fn bad_label_is_reported() {
        let mut f = listing1(None);
        f.predictions[0].target = PredictTarget::Label("nope".into());
        let err = apply_speculative(&mut f, &mut FunctionAnalyses::default(), 32).unwrap_err();
        assert!(matches!(err, PassError::BadPrediction(m) if m.contains("nope")));
    }

    #[test]
    fn unreachable_target_is_reported() {
        // Region starts at the exit block: L1 unreachable from there.
        let mut f = listing1(None);
        f.predictions[0].region_start = BlockId(4);
        let err = apply_speculative(&mut f, &mut FunctionAnalyses::default(), 32).unwrap_err();
        assert!(matches!(err, PassError::BadPrediction(m) if m.contains("not reachable")));
    }

    #[test]
    fn soft_barrier_structure_and_execution() {
        let mut f = listing1(Some(16));
        let report = apply_speculative(&mut f, &mut FunctionAnalyses::default(), 32).unwrap();
        let p = &report.predictions[0];
        let soft = p.soft.expect("threshold lowers to a soft barrier");
        assert_ne!(soft.count, soft.temp);

        // The target block now ends in the threshold branch, and the
        // original work moved to a new roi block.
        assert!(matches!(f.blocks[BlockId(2)].term, Terminator::Branch { .. }));
        let roi_blocks: Vec<BlockId> =
            f.blocks.iter().filter(|(_, b)| b.roi).map(|(id, _)| id).collect();
        assert_eq!(roi_blocks.len(), 1);
        assert_ne!(roi_blocks[0], BlockId(2));

        let mut m = Module::new();
        m.add_function(f);
        simt_ir::assert_verified(&m);
        let out = run(&m, &SimConfig::default(), &Launch::new("listing1", 2)).unwrap();
        let roi = out.metrics.roi_simt_efficiency();
        // Threshold 16 of 32: rounds release at ≥16 arrivals, but in the
        // thinning tail of this short kernel the remaining in-region
        // threads release in smaller groups, so the average sits between
        // the PDOM baseline (~0.2) and the hard barrier (~0.55).
        assert!(roi > 0.3, "soft barrier should give partial convergence, got {roi}");
    }

    #[test]
    fn soft_threshold_degenerate_values_fall_back_to_hard() {
        for t in [0u32, 1, 32, 100] {
            let mut f = listing1(Some(t));
            let report = apply_speculative(&mut f, &mut FunctionAnalyses::default(), 32).unwrap();
            assert!(
                report.predictions[0].soft.is_none(),
                "threshold {t} should use the hard barrier"
            );
        }
    }

    #[test]
    fn speculative_never_changes_results() {
        // A kernel with observable output: same seed must produce the same
        // memory with and without the transformation.
        let src = r#"
kernel @k(params=0, regs=6, barriers=0, entry=bb0) {
  predict bb0 -> label L1
bb0:
  %r0 = special.tid
  %r2 = mov 0
  %r5 = mov 0
  jmp bb1
bb1:
  %r1 = rng.unit
  %r3 = lt %r1, 0.3f
  brdiv %r3, bb2, bb3
bb2 (label=L1, roi):
  %r5 = add %r5, 1
  jmp bb3
bb3:
  %r2 = add %r2, 1
  %r3 = lt %r2, 16
  brdiv %r3, bb1, bb4
bb4:
  store global[%r0], %r5
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let base: Function = {
            let mut f = m.functions.iter().next().unwrap().1.clone();
            f.predictions.clear();
            f
        };
        let mut spec = m.functions.iter().next().unwrap().1.clone();
        apply_speculative(&mut spec, &mut FunctionAnalyses::default(), 32).unwrap();

        let mk = |f: Function| {
            let mut m = Module::new();
            m.add_function(f);
            m
        };
        let mut launch = Launch::new("k", 2);
        launch.global_mem = vec![Value::I64(0); 64];
        let cfg = SimConfig::default();
        let a = run(&mk(base), &cfg, &launch).unwrap().global_mem;
        let b = run(&mk(spec), &cfg, &launch).unwrap().global_mem;
        assert_eq!(a, b, "speculative reconvergence must be semantics-preserving");
    }
}
