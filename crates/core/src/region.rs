//! Prediction-region computation (§4.1).
//!
//! A prediction names a region start `R` and a reconvergence target. The
//! *prediction region* is the set of blocks on paths from `R` that can
//! still reach the target: "the region ends where all threads are no
//! longer able to reach the label". Threads leaving the region must
//! withdraw from the barrier; the region's exit convergence point is the
//! first post-dominator of `R` outside the region.

use simt_analysis::{BitSet, FunctionAnalyses};
use simt_ir::{BlockId, Function};

/// The resolved prediction region of one prediction.
#[derive(Clone, Debug)]
pub struct Region {
    /// Region start (the block carrying the `Predict` directive).
    pub start: BlockId,
    /// Reconvergence target block (intraprocedural) — for interprocedural
    /// predictions this is the block set where calls occur, see
    /// `interproc`.
    pub targets: Vec<BlockId>,
    /// Blocks in the region: reachable from `start` and able to reach a
    /// target.
    pub blocks: BitSet,
    /// Edges `(from_in_region, to_outside)` through which threads escape.
    pub escape_edges: Vec<(BlockId, BlockId)>,
    /// First post-dominator of `start` that lies outside the region, if
    /// any — where the orthogonal region-exit barrier waits.
    pub exit_convergence: Option<BlockId>,
}

/// Computes the prediction region for `start` and the given target
/// blocks.
pub fn compute_region(
    func: &Function,
    fa: &mut FunctionAnalyses,
    start: BlockId,
    targets: &[BlockId],
) -> Region {
    // Walking back from the targets only through blocks reachable from
    // `start` is the intersection of the two reachabilities: the forward
    // set is closed under successors, so every path from one of its
    // blocks to a target stays inside it.
    let (cfg, n) = (fa.of(func), func.blocks.len());
    let ahead = BitSet::reach(n, [start], |b| cfg.succs(b).iter().copied(), |_| true);
    let blocks = BitSet::reach(
        n,
        targets.iter().copied(),
        |b| cfg.preds(b).iter().copied(),
        |b| ahead.contains(b.index()),
    );

    let mut escape_edges = Vec::new();
    for idx in blocks.iter() {
        let b = BlockId::new(idx);
        for &s in cfg.succs(b) {
            if !blocks.contains(s.index()) {
                escape_edges.push((b, s));
            }
        }
    }

    // Walk the post-dominator chain of `start` until outside the region.
    let mut exit_convergence = None;
    let mut cur = cfg.post_dom().idom(start);
    while let Some(pd) = cur {
        if !blocks.contains(pd.index()) {
            exit_convergence = Some(pd);
            break;
        }
        cur = cfg.post_dom().idom(pd);
    }

    Region { start, targets: targets.to_vec(), blocks, escape_edges, exit_convergence }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_module;

    /// Listing 1 / Figure 4: loop with divergent condition guarding an
    /// expensive block. bb0 start, bb2 target (expensive), bb4 exit.
    fn fig4() -> Function {
        let src = r#"
kernel @fig4(params=0, regs=4, barriers=1, entry=bb0) {
bb0:
  nop
  jmp bb1
bb1:
  %r0 = rng.unit
  %r1 = lt %r0, 0.3f
  brdiv %r1, bb2, bb3
bb2 (label=L1, roi):
  work 40
  jmp bb3
bb3:
  %r2 = add %r2, 1
  %r1 = lt %r2, 10
  br %r1, bb1, bb4
bb4:
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.functions.iter().next().unwrap().1.clone();
        f
    }

    #[test]
    fn region_covers_loop_but_not_exit() {
        let f = fig4();
        let region =
            compute_region(&f, &mut FunctionAnalyses::default(), BlockId(0), &[BlockId(2)]);
        for b in 0..4 {
            assert!(region.blocks.contains(b), "bb{b} should be in region");
        }
        assert!(!region.blocks.contains(4));
        assert_eq!(region.escape_edges, vec![(BlockId(3), BlockId(4))]);
        assert_eq!(region.exit_convergence, Some(BlockId(4)));
    }

    #[test]
    fn region_of_unreachable_target_is_empty() {
        let f = fig4();
        // Start at the exit block: the expensive block is unreachable.
        let region =
            compute_region(&f, &mut FunctionAnalyses::default(), BlockId(4), &[BlockId(2)]);
        assert!(region.blocks.is_empty());
        assert!(region.escape_edges.is_empty());
    }

    #[test]
    fn diamond_region_for_common_code() {
        // entry branches; both sides can reach bb3 (common); bb4 after.
        let src = r#"
kernel @d(params=0, regs=2, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.unit
  %r1 = lt %r0, 0.5f
  brdiv %r1, bb1, bb2
bb1:
  nop
  jmp bb3
bb2:
  nop
  jmp bb3
bb3:
  work 10
  jmp bb4
bb4:
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let f = m.functions.iter().next().unwrap().1;
        let region = compute_region(f, &mut FunctionAnalyses::default(), BlockId(0), &[BlockId(3)]);
        assert!(region.blocks.contains(0));
        assert!(region.blocks.contains(1));
        assert!(region.blocks.contains(2));
        assert!(region.blocks.contains(3));
        assert!(!region.blocks.contains(4));
        assert_eq!(region.exit_convergence, Some(BlockId(4)));
    }
}
