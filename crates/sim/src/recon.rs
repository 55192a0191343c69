//! Hardware reconvergence models: the IPDOM reconvergence table and the
//! per-warp stack / split state used by the execution engine.
//!
//! The engine's default model ([`ReconvergenceModel::BarrierFile`]) needs
//! nothing from this module — compiler-placed barrier ops drive
//! reconvergence through the control plane in `barrier.rs`. The two
//! hardware models do:
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

use crate::decode::{DecodedImage, DecodedInst};
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
#[derive(Clone, Copy, Debug)]
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
/// [`ReconvergenceModel::WarpSplit`](crate::config::ReconvergenceModel::WarpSplit).
/// Splits partition the warp's unexited lanes; each carries its own
/// issue clock so non-conflicting splits interleave.
#[derive(Clone, Copy, Debug)]
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
