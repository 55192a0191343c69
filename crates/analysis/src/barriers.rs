//! The two barrier dataflow analyses of §4.2.1 of the paper, plus the
//! conflict detection of §4.3.
//!
//! - **Joined-barrier analysis** (Equation 1): a barrier is *joined* at a
//!   program point if some path from the entry reaches the point with a
//!   `JoinBarrier` not yet cleared by a `WaitBarrier`. Forward, may.
//! - **Barrier liveness** (Equation 2): a barrier is *live* at a point if
//!   some path ahead contains a `WaitBarrier` before any `JoinBarrier`.
//!   Backward, may.
//!
//! The paper's equations ignore `CancelBarrier` / `RejoinBarrier` because
//! they are inserted *after* these analyses run. When re-analyzing already
//! transformed code we treat `Rejoin` as a join, and `Cancel` as clearing
//! the joined state in the *forward* analysis: joined-ness is a per-thread
//! property tracked along paths, and the thread that executes the cancel
//! has left the barrier on that path. Liveness keeps ignoring `Cancel`
//! (a cancelled thread may re-join and wait later), which errs toward
//! keeping barriers live — the safe direction for `Rejoin` placement.

use crate::bitset::BitSet;
use crate::dataflow::{solve, DataflowProblem, DataflowResult, Direction};
use crate::FunctionAnalyses;
use simt_ir::{BarrierId, BarrierOp, BlockId, Function, Inst};

fn apply_forward(inst: &Inst, state: &mut BitSet) {
    if let Inst::Barrier(op) = inst {
        match op {
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                state.insert(b.index());
            }
            BarrierOp::Wait(b) | BarrierOp::Cancel(b) => {
                state.remove(b.index());
            }
            // A mask copy makes the destination exactly as joined as the
            // source: the soft-barrier lowering waits on a copied mask, so
            // conflict detection must see it as joined.
            BarrierOp::Copy { dst, src } => {
                if state.contains(src.index()) {
                    state.insert(dst.index());
                } else {
                    state.remove(dst.index());
                }
            }
            BarrierOp::ArrivedCount { .. } => {}
        }
    }
}

fn apply_backward(inst: &Inst, state: &mut BitSet) {
    if let Inst::Barrier(op) = inst {
        match op {
            BarrierOp::Wait(b) => {
                state.insert(b.index());
            }
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                state.remove(b.index());
            }
            BarrierOp::Cancel(_) | BarrierOp::Copy { .. } | BarrierOp::ArrivedCount { .. } => {}
        }
    }
}

struct JoinedProblem<'a> {
    func: &'a Function,
}

impl DataflowProblem for JoinedProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn domain_size(&self) -> usize {
        self.func.num_barriers
    }
    fn transfer(&self, block: BlockId, input: &BitSet) -> BitSet {
        let mut state = input.clone();
        self.func.blocks[block].insts.iter().for_each(|i| apply_forward(i, &mut state));
        state
    }
}

struct LivenessProblem<'a> {
    func: &'a Function,
}

impl DataflowProblem for LivenessProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn domain_size(&self) -> usize {
        self.func.num_barriers
    }
    fn transfer(&self, block: BlockId, output: &BitSet) -> BitSet {
        let mut state = output.clone();
        self.func.blocks[block].insts.iter().rev().for_each(|i| apply_backward(i, &mut state));
        state
    }
}

/// Result of the joined-barrier analysis (Equation 1).
#[derive(Clone, Debug)]
pub struct BarrierJoined {
    result: DataflowResult,
}

impl BarrierJoined {
    /// Runs the analysis.
    pub fn analyze(func: &Function, fa: &mut FunctionAnalyses) -> BarrierJoined {
        BarrierJoined { result: solve(func, fa, &JoinedProblem { func }) }
    }

    /// Barriers joined at the entry of `block`.
    pub fn joined_in(&self, block: BlockId) -> &BitSet {
        &self.result.entry[block]
    }

    /// Barriers joined at the exit of `block`.
    pub fn joined_out(&self, block: BlockId) -> &BitSet {
        &self.result.exit[block]
    }

    /// Barriers joined just *before* instruction `inst_idx` of `block`
    /// (equal to the number of instructions for the point before the
    /// terminator).
    pub fn joined_before(&self, func: &Function, block: BlockId, inst_idx: usize) -> BitSet {
        let mut state = self.result.entry[block].clone();
        for inst in func.blocks[block].insts.iter().take(inst_idx) {
            apply_forward(inst, &mut state);
        }
        state
    }
}

/// Result of the barrier liveness analysis (Equation 2).
#[derive(Clone, Debug)]
pub struct BarrierLiveness {
    result: DataflowResult,
}

impl BarrierLiveness {
    /// Runs the analysis.
    pub fn analyze(func: &Function, fa: &mut FunctionAnalyses) -> BarrierLiveness {
        BarrierLiveness { result: solve(func, fa, &LivenessProblem { func }) }
    }

    /// Barriers live at the entry of `block`.
    pub fn live_in(&self, block: BlockId) -> &BitSet {
        &self.result.entry[block]
    }

    /// Barriers live at the exit of `block`.
    pub fn live_out(&self, block: BlockId) -> &BitSet {
        &self.result.exit[block]
    }

    /// Barriers live just *after* instruction `inst_idx` of `block`.
    pub fn live_after(&self, func: &Function, block: BlockId, inst_idx: usize) -> BitSet {
        let insts = &func.blocks[block].insts;
        let mut state = self.result.exit[block].clone();
        for inst in insts.iter().skip(inst_idx + 1).rev() {
            apply_backward(inst, &mut state);
        }
        state
    }
}

/// A pair of conflicting barriers (§4.3): their joined ranges overlap
/// without either being contained in the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierConflict {
    /// First barrier of the conflicting pair (lower id).
    pub a: BarrierId,
    /// Second barrier of the conflicting pair.
    pub b: BarrierId,
}

/// Finds all conflicting barrier pairs in `func`.
///
/// Two barriers conflict when their joined ranges overlap in a
/// *non-inclusive* manner (§4.3): each barrier's `WaitBarrier` can execute
/// at a program point where the other barrier is still joined, so the
/// ranges cross rather than nest. Threads could then wait for each other
/// at two different places inside the shared region. Concretely, `X` and
/// `Y` conflict iff some `Wait(X)` sits at a point where `Y` is joined
/// **and** some `Wait(Y)` sits at a point where `X` is joined — for nested
/// (inclusive) ranges only one direction holds, because the inner wait
/// clears the inner barrier before the outer wait is reached.
pub fn find_conflicts(func: &Function) -> Vec<BarrierConflict> {
    find_conflicts_with(func, &mut FunctionAnalyses::default())
}

/// [`find_conflicts`], reading the caller's analyses of `func`.
pub fn find_conflicts_with(func: &Function, fa: &mut FunctionAnalyses) -> Vec<BarrierConflict> {
    let joined = BarrierJoined::analyze(func, fa);
    let nb = func.num_barriers;

    // waits_within[x][y]: some Wait(x) executes while y is joined.
    let mut waits_within = vec![vec![false; nb]; nb];
    for block in func.blocks.ids() {
        let mut state = joined.joined_in(block).clone();
        for inst in &func.blocks[block].insts {
            if let Inst::Barrier(BarrierOp::Wait(x)) = inst {
                for y in state.iter() {
                    if y != x.index() {
                        waits_within[x.index()][y] = true;
                    }
                }
            }
            apply_forward(inst, &mut state);
        }
    }

    let mut out = Vec::new();
    for (i, row) in waits_within.iter().enumerate() {
        for j in (i + 1)..nb {
            if row[j] && waits_within[j][i] {
                out.push(BarrierConflict { a: BarrierId::new(i), b: BarrierId::new(j) });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_module;

    /// The CFG of Figure 4 of the paper (Listing 1): a loop whose body
    /// contains a divergent condition guarding an expensive block.
    ///
    /// bb0 = region start (JoinBarrier b0), bb1 = loop header/prolog +
    /// condition, bb2 = expensive (WaitBarrier b0), bb3 = epilog,
    /// bb4 = region exit. (The paper's BB numbering is shifted by one
    /// because we fold its BB1/BB2 into a single prolog+branch block.)
    fn figure4(with_sync: bool) -> simt_ir::Function {
        let (join, wait) = if with_sync { ("join b0", "wait b0") } else { ("nop", "nop") };
        let src = format!(
            r#"
kernel @fig4(params=0, regs=4, barriers=1, entry=bb0) {{
bb0:
  {join}
  jmp bb1
bb1 (label=prolog):
  %r0 = rng.unit
  %r1 = lt %r0, 0.3f
  brdiv %r1, bb2, bb3
bb2 (label=L1, roi):
  {wait}
  work 40
  jmp bb3
bb3 (label=epilog):
  %r2 = add %r3, 1
  %r3 = mov %r2
  %r1 = lt %r3, 10
  br %r1, bb1, bb4
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
    fn joined_analysis_matches_figure_4b() {
        let f = figure4(true);
        let joined = BarrierJoined::analyze(&f, &mut FunctionAnalyses::default());
        let b0 = 0usize;
        // Joined everywhere after bb0 except immediately after the wait in
        // bb3 — the paper's Figure 4(b): JoinedOut = {b0} for BB0, BB1,
        // BB2, BB4, BB5 and {} for BB3.
        assert!(joined.joined_out(BlockId(0)).contains(b0));
        assert!(joined.joined_out(BlockId(1)).contains(b0));
        assert!(!joined.joined_out(BlockId(2)).contains(b0), "wait clears joined state");
        assert!(joined.joined_out(BlockId(3)).contains(b0), "loop edge re-propagates");
        assert!(joined.joined_in(BlockId(2)).contains(b0));
    }

    #[test]
    fn liveness_analysis_matches_figure_4c() {
        let f = figure4(true);
        let live = BarrierLiveness::analyze(&f, &mut FunctionAnalyses::default());
        let b0 = 0usize;
        // Figure 4(c): LiveOut = {b0} for BB0, BB1, BB2, BB3 (via the loop
        // back edge), BB4; {} for BB5.
        assert!(live.live_out(BlockId(0)).contains(b0));
        assert!(live.live_out(BlockId(1)).contains(b0));
        assert!(live.live_out(BlockId(2)).contains(b0), "back edge keeps barrier live");
        assert!(live.live_out(BlockId(3)).contains(b0));
        assert!(!live.live_out(BlockId(4)).contains(b0));
        // The barrier is dead *at entry to* bb0 before the join (Figure
        // 4(c) "LiveOut = {}" for the pre-join point).
        assert!(!live.live_in(BlockId(0)).contains(b0));
    }

    #[test]
    fn instruction_level_queries() {
        let f = figure4(true);
        let joined = BarrierJoined::analyze(&f, &mut FunctionAnalyses::default());
        let live = BarrierLiveness::analyze(&f, &mut FunctionAnalyses::default());
        // In bb2: before inst 0 (the wait) the barrier is joined; after
        // the wait it is not joined but is live again via the loop.
        assert!(joined.joined_before(&f, BlockId(2), 0).contains(0));
        assert!(!joined.joined_before(&f, BlockId(2), 1).contains(0));
        assert!(live.live_after(&f, BlockId(2), 0).contains(0));
        // In bb0: before the join, not joined.
        assert!(!joined.joined_before(&f, BlockId(0), 0).contains(0));
        assert!(joined.joined_before(&f, BlockId(0), 1).contains(0));
    }

    #[test]
    fn no_sync_means_nothing_joined_or_live() {
        let f = figure4(false);
        let joined = BarrierJoined::analyze(&f, &mut FunctionAnalyses::default());
        let live = BarrierLiveness::analyze(&f, &mut FunctionAnalyses::default());
        for b in f.blocks.ids() {
            assert!(joined.joined_out(b).is_empty());
            assert!(live.live_in(b).is_empty());
        }
    }

    #[test]
    fn conflict_detection_matches_figure_5() {
        // Figure 5(a): b0 joined at bb0 and waited in bb3 (then-block);
        // b1 (the PDOM barrier) joined at bb2 (branch block) and waited at
        // bb5 (post-dominator). Ranges overlap non-inclusively.
        let src = r#"
kernel @fig5(params=0, regs=4, barriers=2, entry=bb0) {
bb0:
  join b0
  jmp bb1
bb1:
  %r0 = rng.unit
  %r1 = lt %r0, 0.3f
  join b1
  brdiv %r1, bb2, bb3
bb2:
  wait b0
  work 40
  jmp bb3
bb3:
  wait b1
  %r2 = add %r2, 1
  %r1 = lt %r2, 10
  br %r1, bb1, bb4
bb4:
  cancel b0
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.functions.iter().next().unwrap().1;
        let conflicts = find_conflicts(f);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(conflicts[0], BarrierConflict { a: BarrierId(0), b: BarrierId(1) });
    }

    #[test]
    fn nested_barriers_do_not_conflict() {
        // b1's range strictly inside b0's range: inclusive overlap, no
        // conflict.
        let src = r#"
kernel @nested(params=0, regs=2, barriers=2, entry=bb0) {
bb0:
  join b0
  jmp bb1
bb1:
  join b1
  jmp bb2
bb2:
  wait b1
  jmp bb3
bb3:
  wait b0
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.functions.iter().next().unwrap().1;
        assert!(find_conflicts(f).is_empty());
    }
}
