//! Automatic detection of Speculative Reconvergence opportunities (§4.5).
//!
//! Scans a kernel's CFG for the two patterns of §3 — a divergent branch
//! inside a loop (**Iteration Delay**) and a nested loop with a divergent
//! trip count (**Loop Merge**) — and scores each with the paper's static
//! cost heuristics:
//!
//! 1. *instruction cost* of the would-be-serialized prolog/epilog versus
//!    the common code, weighted by latency and loop nest depth;
//! 2. *memory access patterns*: global accesses in the prolog/epilog are
//!    penalized because the transform makes them divergent;
//! 3. *synchronization requirements*: regions already containing barriers
//!    are skipped.
//!
//! As the paper stresses, static detection is conservative and imperfect
//! — some compiler-detected candidates regress on hardware — so
//! [`auto_annotate`] only applies candidates above a score threshold and
//! never two candidates with overlapping regions (which would create
//! speculative-speculative conflicts).

use crate::cost::{block_cost, global_mem_ops, has_existing_sync, region_cost};
use simt_analysis::{BitSet, FunctionAnalyses};
use simt_ir::{BlockId, FuncId, Function, PredictTarget, Prediction, Terminator};
use simt_sim::{LatencyModel, Profile};

/// Which §3 pattern a candidate matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatternKind {
    /// Divergent condition within a loop (Figure 2(a)).
    IterationDelay,
    /// Loop trip-count divergence in a nested loop (Figure 2(b)).
    LoopMerge,
}

/// A detected reconvergence opportunity.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Pattern matched.
    pub kind: PatternKind,
    /// Proposed region start (a loop preheader, or the function entry).
    pub region_start: BlockId,
    /// Proposed reconvergence point.
    pub target: BlockId,
    /// Estimated cost of the common (expensive) code.
    pub expensive_cost: u64,
    /// Estimated cost of the code the transform newly serializes.
    pub overhead_cost: u64,
    /// Global memory operations in the overhead region (penalty input).
    pub mem_penalty: u64,
    /// Benefit score: higher is better; `>= 1.0` roughly means the common
    /// code outweighs the newly-serialized code.
    pub score: f64,
    /// Blocks in the enclosing loop (used to avoid overlapping
    /// applications).
    pub loop_blocks: BitSet,
}

/// Detection tuning knobs.
#[derive(Clone, Debug)]
pub struct DetectOptions {
    /// Candidates below this score are dropped by [`auto_annotate`].
    pub min_score: f64,
    /// Cost model used for the static estimates.
    pub latency: LatencyModel,
    /// Extra cost charged per global memory op in the overhead region.
    pub mem_penalty_weight: u64,
}

impl Default for DetectOptions {
    fn default() -> Self {
        Self { min_score: 1.0, latency: LatencyModel::default(), mem_penalty_weight: 8 }
    }
}

/// Detects all candidates in `func` using the static cost heuristics.
///
/// ```
/// use simt_ir::parse_module;
/// use specrecon_core::{detect, DetectOptions, PatternKind};
///
/// let m = parse_module(
///     "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
///      bb0:\n  %r2 = mov 0\n  jmp bb1\n\
///      bb1:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.2f\n  brdiv %r1, bb2, bb3\n\
///      bb2:\n  work 60\n  jmp bb3\n\
///      bb3:\n  %r2 = add %r2, 1\n  %r1 = lt %r2, 20\n  brdiv %r1, bb1, bb4\n\
///      bb4:\n  exit\n}\n",
/// ).unwrap();
/// let f = m.functions.iter().next().unwrap().1;
/// let candidates = detect(f, &DetectOptions::default());
/// assert_eq!(candidates[0].kind, PatternKind::IterationDelay);
/// assert!(candidates[0].score > 1.0);
/// ```
pub fn detect(func: &Function, opts: &DetectOptions) -> Vec<Candidate> {
    detect_impl(func, &mut FunctionAnalyses::default(), opts, None)
}

/// Detects candidates using *measured* block execution counts instead of
/// the static trip-count guess — the profile-guided mode §4.5 proposes to
/// fix static analysis's "inability to predict dynamic loop counts".
///
/// `profile` should come from a [`simt_sim::SimConfig::profile`]-enabled
/// run of the *baseline* compilation; `func_id` names this function in
/// the profiled module.
pub fn detect_profiled(
    func: &Function,
    func_id: FuncId,
    profile: &Profile,
    opts: &DetectOptions,
) -> Vec<Candidate> {
    detect_impl(func, &mut FunctionAnalyses::default(), opts, Some((profile, func_id)))
}

/// Cost of `blocks` normalized per visit of `norm_block`, from measured
/// entry counts. Blocks the profile never saw contribute nothing — which
/// is exactly the correction over the static model: a branch that never
/// fires has no "expensive common code".
fn profiled_region_cost(
    func: &Function,
    lat: &LatencyModel,
    blocks: &BitSet,
    profile: &Profile,
    func_id: FuncId,
    norm_block: BlockId,
) -> u64 {
    let norm = profile.lane_entries(func_id, norm_block).max(1);
    let total: u128 = blocks
        .iter()
        .map(|idx| {
            let b = BlockId::new(idx);
            u128::from(block_cost(func, lat, b)) * u128::from(profile.lane_entries(func_id, b))
        })
        .sum();
    u64::try_from(total / u128::from(norm)).unwrap_or(u64::MAX)
}

fn detect_impl(
    func: &Function,
    fa: &mut FunctionAnalyses,
    opts: &DetectOptions,
    profile: Option<(&Profile, FuncId)>,
) -> Vec<Candidate> {
    let cfg = fa.of(func);
    let (pdt, loops) = (cfg.post_dom(), cfg.loops());
    let mut out = Vec::new();
    // A region's cost per visit of `header`: measured when there is a
    // profile, otherwise the static estimate at nest depth `depth`.
    let cost = |blocks: &BitSet, header: BlockId, depth: u32| match profile {
        Some((prof, fid)) => profiled_region_cost(func, &opts.latency, blocks, prof, fid, header),
        None => region_cost(func, &opts.latency, loops, blocks, depth),
    };

    // ---- Loop Merge: inner loop with a divergent exit branch ------------
    for l in loops.loops.iter() {
        let Some(parent) = l.parent else { continue };
        let exit_divergent = l.exit_edges(func).iter().any(|&(from, _)| {
            matches!(func.blocks[from].term, Terminator::Branch { divergent: true, .. })
        });
        if !exit_divergent {
            continue;
        }
        let outer = &loops.loops[parent];
        if has_existing_sync(func, &outer.body) {
            continue;
        }
        // Both costs are normalized to one iteration of the *outer* loop:
        // statically the inner body is weighted by an assumed trip count;
        // with a profile, by its measured visit counts.
        let mut overhead_blocks = outer.body.clone();
        overhead_blocks.subtract(&l.body);
        let depth = loops.depth(outer.header);
        let inner_cost = cost(&l.body, outer.header, depth);
        let overhead_cost = cost(&overhead_blocks, outer.header, depth);
        let mem_penalty = global_mem_ops(func, &overhead_blocks);
        let denom = overhead_cost + opts.mem_penalty_weight * mem_penalty + 1;
        out.push(Candidate {
            kind: PatternKind::LoopMerge,
            region_start: loops.preheader(parent).unwrap_or(func.entry),
            target: l.header,
            expensive_cost: inner_cost,
            overhead_cost,
            mem_penalty,
            score: inner_cost as f64 / denom as f64,
            loop_blocks: outer.body.clone(),
        });
    }

    // ---- Iteration Delay: divergent branch inside a loop -----------------
    for (li, l) in loops.loops.iter().enumerate() {
        for idx in l.body.iter() {
            let b = BlockId::new(idx);
            let Terminator::Branch { then_bb, else_bb, divergent, .. } = func.blocks[b].term else {
                continue;
            };
            if !divergent || then_bb == else_bb {
                continue;
            }
            // Skip the loop's own latch/exit branches (those are the Loop
            // Merge pattern).
            let is_loop_branch = then_bb == l.header
                || else_bb == l.header
                || !l.contains(then_bb)
                || !l.contains(else_bb);
            if is_loop_branch {
                continue;
            }
            let pdom = pdt.idom(b);
            // A side's blocks: reachable from its first block inside the
            // loop body, stopping at (and excluding) the post-dominator.
            let side_blocks = |from| {
                let inside = |s: BlockId| Some(s) != pdom && l.contains(s);
                BitSet::reach(func.blocks.len(), [from], |s| cfg.succs(s).iter().copied(), inside)
            };
            // One-sided condition: the side that is not the post-dominator
            // is the common-code candidate.
            let side = if Some(then_bb) == pdom {
                else_bb
            } else if Some(else_bb) == pdom {
                then_bb
            } else {
                // Two-sided: pick the costlier side.
                let tc = side_blocks(then_bb);
                let ec = side_blocks(else_bb);
                if region_cost(func, &opts.latency, loops, &tc, loops.depth(b))
                    >= region_cost(func, &opts.latency, loops, &ec, loops.depth(b))
                {
                    then_bb
                } else {
                    else_bb
                }
            };
            if side == l.header {
                continue;
            }
            if has_existing_sync(func, &l.body) {
                continue;
            }
            let expensive_blocks = side_blocks(side);
            if expensive_blocks.is_empty() {
                continue;
            }
            let mut overhead_blocks = l.body.clone();
            overhead_blocks.subtract(&expensive_blocks);
            let expensive_cost = cost(&expensive_blocks, l.header, loops.depth(b));
            let overhead_cost = cost(&overhead_blocks, l.header, loops.depth(l.header));
            let mem_penalty = global_mem_ops(func, &overhead_blocks);
            let denom = overhead_cost + opts.mem_penalty_weight * mem_penalty + 1;
            out.push(Candidate {
                kind: PatternKind::IterationDelay,
                region_start: loops.preheader(li).unwrap_or(func.entry),
                target: side,
                expensive_cost,
                overhead_cost,
                mem_penalty,
                score: expensive_cost as f64 / denom as f64,
                loop_blocks: l.body.clone(),
            });
        }
    }

    out.sort_by(|a, b| b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Detects candidates and attaches predictions for the profitable,
/// non-overlapping ones. Returns the applied candidates.
///
/// Targets without a label get one generated (`auto_reconv_<n>`), since
/// predictions name their point by label exactly as a user would.
pub fn auto_annotate(
    func: &mut Function,
    fa: &mut FunctionAnalyses,
    opts: &DetectOptions,
) -> Vec<Candidate> {
    let candidates = detect_impl(func, fa, opts, None);
    apply_candidates(func, opts, candidates)
}

/// Profile-guided [`auto_annotate`].
pub fn auto_annotate_profiled(
    func: &mut Function,
    func_id: FuncId,
    profile: &Profile,
    opts: &DetectOptions,
) -> Vec<Candidate> {
    let candidates = detect_profiled(func, func_id, profile, opts);
    apply_candidates(func, opts, candidates)
}

fn apply_candidates(
    func: &mut Function,
    opts: &DetectOptions,
    candidates: Vec<Candidate>,
) -> Vec<Candidate> {
    let mut applied: Vec<Candidate> = Vec::new();
    for c in candidates {
        if c.score < opts.min_score {
            continue;
        }
        if applied.iter().any(|a| a.loop_blocks.intersects(&c.loop_blocks)) {
            continue;
        }
        let label = match &func.blocks[c.target].label {
            Some(l) => l.clone(),
            None => {
                let l = format!("auto_reconv_{}", c.target.index());
                func.blocks[c.target].label = Some(l.clone());
                l
            }
        };
        func.predictions.push(Prediction {
            region_start: c.region_start,
            target: PredictTarget::Label(label),
            threshold: None,
        });
        applied.push(c);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_module;

    /// Figure 2(a): divergent condition in a loop with an expensive then.
    fn iteration_delay_kernel(expensive: u32) -> Function {
        let src = format!(
            "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {{\n\
             bb0:\n  %r2 = mov 0\n  jmp bb1\n\
             bb1:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.2f\n  brdiv %r1, bb2, bb3\n\
             bb2 (roi):\n  work {expensive}\n  jmp bb3\n\
             bb3:\n  %r2 = add %r2, 1\n  %r1 = lt %r2, 20\n  brdiv %r1, bb1, bb4\n\
             bb4:\n  exit\n}}\n"
        );
        let m = parse_module(&src).unwrap();
        let f = m.functions.iter().next().unwrap().1.clone();
        f
    }

    /// Figure 2(b): nested loop with divergent trip count.
    fn loop_merge_kernel() -> Function {
        let src = "kernel @k(params=0, regs=6, barriers=0, entry=bb0) {\n\
             bb0:\n  %r2 = mov 0\n  jmp bb1\n\
             bb1:\n  %r3 = rng.u63\n  %r4 = rem %r3, 30\n  jmp bb2\n\
             bb2 (roi):\n  work 25\n  %r4 = sub %r4, 1\n  %r5 = gt %r4, 0\n  brdiv %r5, bb2, bb3\n\
             bb3:\n  %r2 = add %r2, 1\n  %r5 = lt %r2, 10\n  brdiv %r5, bb1, bb4\n\
             bb4:\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let f = m.functions.iter().next().unwrap().1.clone();
        f
    }

    #[test]
    fn detects_iteration_delay_with_expensive_then() {
        let f = iteration_delay_kernel(60);
        let cands = detect(&f, &DetectOptions::default());
        let id: Vec<_> = cands.iter().filter(|c| c.kind == PatternKind::IterationDelay).collect();
        assert_eq!(id.len(), 1);
        assert_eq!(id[0].target, BlockId(2));
        assert_eq!(id[0].region_start, BlockId(0));
        assert!(id[0].score > 1.0, "score {}", id[0].score);
    }

    #[test]
    fn cheap_then_scores_low() {
        let f = iteration_delay_kernel(1);
        let cands = detect(&f, &DetectOptions::default());
        let id = cands.iter().find(|c| c.kind == PatternKind::IterationDelay).unwrap();
        assert!(id.score < 1.0, "cheap common code must score low, got {}", id.score);
    }

    #[test]
    fn detects_loop_merge_on_nested_divergent_loop() {
        let f = loop_merge_kernel();
        let cands = detect(&f, &DetectOptions::default());
        let lm: Vec<_> = cands.iter().filter(|c| c.kind == PatternKind::LoopMerge).collect();
        assert_eq!(lm.len(), 1);
        assert_eq!(lm[0].target, BlockId(2), "reconverge at the inner loop header");
        assert!(lm[0].score > 1.0);
    }

    #[test]
    fn auto_annotate_adds_prediction_and_label() {
        let mut f = loop_merge_kernel();
        let applied =
            auto_annotate(&mut f, &mut FunctionAnalyses::default(), &DetectOptions::default());
        assert_eq!(applied.len(), 1);
        assert_eq!(f.predictions.len(), 1);
        // The target already had a label? bb2 had none beyond roi — a
        // generated label should exist and match the prediction.
        match &f.predictions[0].target {
            PredictTarget::Label(l) => {
                assert_eq!(f.block_by_label(l), Some(BlockId(2)));
            }
            other => panic!("unexpected target {other:?}"),
        }
    }

    #[test]
    fn min_score_filters_candidates() {
        let mut f = iteration_delay_kernel(1);
        let applied =
            auto_annotate(&mut f, &mut FunctionAnalyses::default(), &DetectOptions::default());
        assert!(applied.is_empty());
        assert!(f.predictions.is_empty());
    }

    #[test]
    fn regions_with_existing_sync_are_skipped() {
        let src = "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r2 = mov 0\n  jmp bb1\n\
             bb1:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.2f\n  join b0\n  brdiv %r1, bb2, bb3\n\
             bb2:\n  work 60\n  jmp bb3\n\
             bb3:\n  wait b0\n  %r2 = add %r2, 1\n  %r1 = lt %r2, 20\n  brdiv %r1, bb1, bb4\n\
             bb4:\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let f = m.functions.iter().next().unwrap().1.clone();
        let cands = detect(&f, &DetectOptions::default());
        assert!(
            cands.iter().all(|c| c.kind != PatternKind::IterationDelay),
            "synchronized region must be skipped"
        );
    }

    #[test]
    fn overlapping_candidates_apply_only_best() {
        // A loop containing BOTH a divergent inner loop and a divergent
        // expensive condition: two candidates share the outer loop;
        // only the higher-scoring one is applied.
        let src = "kernel @k(params=0, regs=8, barriers=0, entry=bb0) {\n\
             bb0:\n  %r2 = mov 0\n  jmp bb1\n\
             bb1:\n  %r3 = rng.u63\n  %r4 = rem %r3, 20\n  jmp bb2\n\
             bb2:\n  work 30\n  %r4 = sub %r4, 1\n  %r5 = gt %r4, 0\n  brdiv %r5, bb2, bb3\n\
             bb3:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.2f\n  brdiv %r1, bb4, bb5\n\
             bb4:\n  work 50\n  jmp bb5\n\
             bb5:\n  %r2 = add %r2, 1\n  %r1 = lt %r2, 10\n  brdiv %r1, bb1, bb6\n\
             bb6:\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let mut f = m.functions.iter().next().unwrap().1.clone();
        let cands = detect(&f, &DetectOptions::default());
        assert!(cands.len() >= 2, "both patterns present: {cands:?}");
        let applied =
            auto_annotate(&mut f, &mut FunctionAnalyses::default(), &DetectOptions::default());
        assert_eq!(applied.len(), 1, "overlapping candidates must not stack");
    }
}
