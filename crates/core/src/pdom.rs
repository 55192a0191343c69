//! Baseline post-dominator (PDOM) reconvergence insertion.
//!
//! This is what the production GPU compiler does by default and what the
//! paper's Speculative Reconvergence competes with: for every conditional
//! branch, join a convergence barrier in the branch block and wait on it
//! at the branch's immediate post-dominator. For a divergent loop-exit
//! branch this naturally yields the classic serialization the paper's
//! Figure 1(a)/3(b)(i) depicts: threads that leave the loop early block at
//! the exit until every straggler has finished iterating (threads re-join
//! the barrier each time they pass the branch).

use simt_analysis::FunctionAnalyses;
use simt_ir::{BarrierId, BarrierOp, BlockId, Function, Inst, Terminator};

/// Barriers inserted by the PDOM pass for one function.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PdomReport {
    /// `(branch_block, post_dominator, barrier)` per instrumented branch.
    pub inserted: Vec<(BlockId, BlockId, BarrierId)>,
    /// Branches skipped because they have no post-dominator (paths that
    /// only exit).
    pub skipped: Vec<BlockId>,
}

/// Runs PDOM reconvergence insertion on one function.
///
/// Every conditional branch whose two targets differ gets a fresh
/// barrier, whatever its block already holds. The pass is not idempotent
/// (a second run adds a second join/wait pair per branch), so the
/// pipeline runs it once per function.
pub fn insert_pdom_sync(func: &mut Function, fa: &mut FunctionAnalyses) -> PdomReport {
    let mut report = PdomReport::default();
    let cfg = fa.of(func);

    // Collect instrumentation sites first (RPO so outer branches get their
    // waits pushed before inner ones, keeping inner waits first at shared
    // post-dominators).
    let mut sites: Vec<(BlockId, BlockId)> = Vec::new();
    for &b in cfg.rpo() {
        if let Terminator::Branch { then_bb, else_bb, .. } = func.blocks[b].term {
            if then_bb == else_bb {
                continue;
            }
            match cfg.post_dom().idom(b) {
                Some(p) => sites.push((b, p)),
                None => report.skipped.push(b),
            }
        }
    }

    for (branch_block, pdom) in sites {
        let bar = func.alloc_barrier();
        func.blocks[branch_block].insts.push(Inst::Barrier(BarrierOp::Join(bar)));
        func.blocks[pdom].insts.insert(0, Inst::Barrier(BarrierOp::Wait(bar)));
        report.inserted.push((branch_block, pdom, bar));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{parse_module, Module};
    use simt_sim::{run, Launch, SimConfig};

    fn first_fn(m: &Module) -> Function {
        let f = m.functions.iter().next().unwrap().1.clone();
        f
    }

    #[test]
    fn diamond_gets_join_and_wait() {
        let m = parse_module(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
             bb1:\n  nop\n  jmp bb3\n\
             bb2:\n  nop\n  jmp bb3\n\
             bb3:\n  exit\n}\n",
        )
        .unwrap();
        let mut f = first_fn(&m);
        let report = insert_pdom_sync(&mut f, &mut FunctionAnalyses::default());
        assert_eq!(report.inserted.len(), 1);
        let (branch, pdom, bar) = report.inserted[0];
        assert_eq!(branch, BlockId(0));
        assert_eq!(pdom, BlockId(3));
        assert_eq!(f.blocks[branch].insts.last(), Some(&Inst::Barrier(BarrierOp::Join(bar))));
        assert_eq!(f.blocks[pdom].insts.first(), Some(&Inst::Barrier(BarrierOp::Wait(bar))));
        assert_eq!(f.num_barriers, 1);
    }

    #[test]
    fn a_second_run_adds_a_second_pair_even_after_a_source_join() {
        // bb0 already ends in a source-written join before its branch: the
        // pass still instruments the branch, and running it again
        // instruments it again.
        let m = parse_module(
            "kernel @k(params=0, regs=2, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  join b0\n  brdiv %r1, bb1, bb2\n\
             bb1:\n  nop\n  jmp bb3\n\
             bb2:\n  nop\n  jmp bb3\n\
             bb3:\n  wait b0\n  exit\n}\n",
        )
        .unwrap();
        let mut f = first_fn(&m);
        let mut fa = FunctionAnalyses::default();
        let first = insert_pdom_sync(&mut f, &mut fa);
        assert_eq!(first.inserted, vec![(BlockId(0), BlockId(3), BarrierId(1))]);
        let second = insert_pdom_sync(&mut f, &mut fa);
        assert_eq!(second.inserted, vec![(BlockId(0), BlockId(3), BarrierId(2))]);
        let join = |b| Inst::Barrier(BarrierOp::Join(BarrierId(b)));
        let wait = |b| Inst::Barrier(BarrierOp::Wait(BarrierId(b)));
        assert_eq!(f.blocks[BlockId(0)].insts[2..], [join(0), join(1), join(2)]);
        assert_eq!(f.blocks[BlockId(3)].insts, [wait(2), wait(1), wait(0)]);
    }

    #[test]
    fn branch_without_pdom_is_skipped() {
        let m = parse_module(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
             bb1:\n  exit\n\
             bb2:\n  exit\n}\n",
        )
        .unwrap();
        let mut f = first_fn(&m);
        let report = insert_pdom_sync(&mut f, &mut FunctionAnalyses::default());
        assert!(report.inserted.is_empty());
        assert_eq!(report.skipped, vec![BlockId(0)]);
    }

    #[test]
    fn pdom_loop_serializes_divergent_condition() {
        // The paper's Figure 2(a): loop with a divergent condition guarding
        // expensive code. Under PDOM sync the expensive block runs with a
        // partial mask every iteration → low ROI efficiency.
        let m = parse_module(
            "kernel @k(params=0, regs=4, barriers=0, entry=bb0) {\n\
             bb0:\n  %r2 = mov 0\n  jmp bb1\n\
             bb1:\n  %r0 = rng.unit\n  %r1 = lt %r0, 0.2f\n  brdiv %r1, bb2, bb3\n\
             bb2 (roi):\n  work 40\n  jmp bb3\n\
             bb3:\n  %r2 = add %r2, 1\n  %r1 = lt %r2, 20\n  brdiv %r1, bb1, bb4\n\
             bb4:\n  exit\n}\n",
        )
        .unwrap();
        let mut f = first_fn(&m);
        insert_pdom_sync(&mut f, &mut FunctionAnalyses::default());
        let mut module = Module::new();
        module.add_function(f);
        simt_ir::assert_verified(&module);
        let out = run(&module, &SimConfig::default(), &Launch::new("k", 2)).unwrap();
        let roi = out.metrics.roi_simt_efficiency();
        assert!(roi < 0.6, "PDOM should leave the expensive block divergent, got {roi}");
    }

    #[test]
    fn pdom_is_deadlock_free_on_nested_loops() {
        let m = parse_module(
            "kernel @k(params=0, regs=6, barriers=0, entry=bb0) {\n\
             bb0:\n  %r2 = mov 0\n  jmp bb1\n\
             bb1:\n  %r3 = rng.u63\n  %r4 = rem %r3, 5\n  jmp bb2\n\
             bb2:\n  %r4 = sub %r4, 1\n  %r5 = gt %r4, 0\n  brdiv %r5, bb2, bb3\n\
             bb3:\n  %r2 = add %r2, 1\n  %r5 = lt %r2, 10\n  brdiv %r5, bb1, bb4\n\
             bb4:\n  exit\n}\n",
        )
        .unwrap();
        let mut f = first_fn(&m);
        insert_pdom_sync(&mut f, &mut FunctionAnalyses::default());
        let mut module = Module::new();
        module.add_function(f);
        let out = run(&module, &SimConfig::default(), &Launch::new("k", 4)).unwrap();
        assert!(out.metrics.issues > 0);
    }
}
