//! If/else diamond detection over the decoded CFG.
//!
//! A *diamond* is the structural shape control-flow melding (DARM-style)
//! repairs: a divergent two-way branch whose arms are single basic blocks
//! with no other predecessors, both jumping to one common join block.
//! Anything larger (multi-block arms, shared arm blocks, critical edges
//! into an arm) is left to PDOM or Speculative Reconvergence, which
//! handle general region shapes.

use crate::FunctionAnalyses;
use simt_ir::{BlockId, Function, Terminator};

/// One divergent if/else diamond: `branch` splits into `then_arm` /
/// `else_arm`, which both jump to `join`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Diamond {
    /// Block ending in the divergent two-way branch.
    pub branch: BlockId,
    /// Arm taken when the condition is non-zero.
    pub then_arm: BlockId,
    /// Arm taken when the condition is zero.
    pub else_arm: BlockId,
    /// The common join block both arms jump to.
    pub join: BlockId,
}

/// Finds every divergent if/else diamond in `func`.
///
/// The match is deliberately strict — each arm must be a single block
/// whose only predecessor is the branch, and both arms must end in an
/// unconditional jump to the same join — so a detected diamond can be
/// rewritten without touching any control flow outside the four blocks.
///
/// ```
/// use simt_ir::parse_module;
/// use simt_analysis::find_diamonds;
///
/// let m = parse_module(
///     "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
///      bb0:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.5f\n  brdiv %r1, bb1, bb2\n\
///      bb1:\n  work 10\n  jmp bb3\n\
///      bb2:\n  work 20\n  jmp bb3\n\
///      bb3:\n  exit\n}\n",
/// ).unwrap();
/// let f = m.functions.iter().next().unwrap().1;
/// let ds = find_diamonds(f);
/// assert_eq!(ds.len(), 1);
/// assert_eq!(ds[0].branch.index(), 0);
/// assert_eq!(ds[0].join.index(), 3);
/// ```
pub fn find_diamonds(func: &Function) -> Vec<Diamond> {
    find_diamonds_with(func, &mut FunctionAnalyses::default())
}

/// [`find_diamonds`], reading the caller's analyses of `func`.
pub fn find_diamonds_with(func: &Function, fa: &mut FunctionAnalyses) -> Vec<Diamond> {
    let cfg = fa.of(func);
    let mut out = Vec::new();
    for (b, block) in func.blocks.iter() {
        let Terminator::Branch { then_bb, else_bb, divergent: true, .. } = block.term else {
            continue;
        };
        if then_bb == else_bb || then_bb == b || else_bb == b {
            continue;
        }
        if cfg.preds(then_bb).len() != 1 || cfg.preds(else_bb).len() != 1 {
            continue;
        }
        let (Terminator::Jump(tj), Terminator::Jump(ej)) =
            (&func.blocks[then_bb].term, &func.blocks[else_bb].term)
        else {
            continue;
        };
        if tj != ej {
            continue;
        }
        let join = *tj;
        if join == b || join == then_bb || join == else_bb {
            continue;
        }
        out.push(Diamond { branch: b, then_arm: then_bb, else_arm: else_bb, join });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_module;

    fn func_of(src: &str) -> Function {
        let m = parse_module(src).unwrap();
        let f = m.functions.iter().next().unwrap().1.clone();
        f
    }

    #[test]
    fn non_divergent_branch_is_not_a_diamond() {
        let f = func_of(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.5f\n  br %r1, bb1, bb2\n\
             bb1:\n  work 10\n  jmp bb3\n\
             bb2:\n  work 20\n  jmp bb3\n\
             bb3:\n  exit\n}\n",
        );
        assert!(find_diamonds(&f).is_empty());
    }

    #[test]
    fn one_sided_branch_is_not_a_diamond() {
        // then-arm jumps straight to the join (no else arm block).
        let f = func_of(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.5f\n  brdiv %r1, bb1, bb2\n\
             bb1:\n  work 10\n  jmp bb2\n\
             bb2:\n  exit\n}\n",
        );
        assert!(find_diamonds(&f).is_empty());
    }

    #[test]
    fn arm_with_extra_predecessor_is_rejected() {
        // bb1 is also reachable from bb3, so it is not a private arm.
        let f = func_of(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.5f\n  brdiv %r1, bb1, bb2\n\
             bb1:\n  work 10\n  jmp bb4\n\
             bb2:\n  work 20\n  jmp bb4\n\
             bb3:\n  jmp bb1\n\
             bb4:\n  exit\n}\n",
        );
        assert!(find_diamonds(&f).is_empty());
    }

    #[test]
    fn diamond_inside_a_loop_is_found() {
        let f = func_of(
            "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
             bb0:\n  %r2 = mov 0\n  jmp bb1\n\
             bb1:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.2f\n  brdiv %r1, bb2, bb3\n\
             bb2:\n  work 60\n  jmp bb4\n\
             bb3:\n  work 40\n  jmp bb4\n\
             bb4:\n  %r2 = add %r2, 1\n  %r1 = lt %r2, 20\n  brdiv %r1, bb1, bb5\n\
             bb5:\n  exit\n}\n",
        );
        let ds = find_diamonds(&f);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].branch, BlockId(1));
        assert_eq!(ds[0].then_arm, BlockId(2));
        assert_eq!(ds[0].else_arm, BlockId(3));
        assert_eq!(ds[0].join, BlockId(4));
    }
}
