//! Hardware reconvergence models: IPDOM table construction and the
//! per-warp stack / split state used by the execution engine.
//!
//! The engine's default model ([`ReconvergenceModel::BarrierFile`]) needs
//! nothing from this module — compiler-placed barrier ops drive
//! reconvergence through the control plane in `barrier.rs`. The two
//! hardware models do:
//!
//! * [`ReconvergenceModel::IpdomStack`] consults an [`IpdomTable`] mapping
//!   every conditional-branch pc to the flat pc where its arms reconverge —
//!   the entry pc of the branch block's immediate post-dominator, computed
//!   here from the decoded image's CFG (block layout is recoverable from
//!   [`PcOrigin`](crate::decode) because blocks are laid out contiguously
//!   in id order).
//! * [`ReconvergenceModel::WarpSplit`] keeps per-warp [`Split`] lists; the
//!   table is not needed because splits re-fuse opportunistically whenever
//!   their frontiers re-align.
//!
//! [`ReconvergenceModel::BarrierFile`]: crate::config::ReconvergenceModel::BarrierFile
//! [`ReconvergenceModel::IpdomStack`]: crate::config::ReconvergenceModel::IpdomStack
//! [`ReconvergenceModel::WarpSplit`]: crate::config::ReconvergenceModel::WarpSplit

use crate::decode::{DecodedImage, DecodedInst};

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

/// Branch-pc → reconvergence-pc table for the IPDOM stack model.
///
/// Built once per launch from the decoded image; immutable afterwards.
#[derive(Clone, Debug)]
pub(crate) struct IpdomTable {
    /// Parallel to the instruction stream: `NO_RPC` everywhere except at
    /// conditional-branch pcs whose block has a real immediate
    /// post-dominator.
    rpc: Vec<u32>,
}

impl IpdomTable {
    /// Computes immediate post-dominators for every function in the
    /// image and records the reconvergence pc of each conditional branch.
    pub(crate) fn build(image: &DecodedImage) -> IpdomTable {
        let n = image.insts.len();
        let mut rpc = vec![NO_RPC; n];
        // Functions occupy contiguous pc ranges in id order.
        let mut start = 0usize;
        while start < n {
            let func = image.origin[start].func;
            let mut end = start;
            while end < n && image.origin[end].func == func {
                end += 1;
            }
            build_function(image, start, end, &mut rpc);
            start = end;
        }
        IpdomTable { rpc }
    }

    /// Reconvergence pc of the branch at `pc` (`NO_RPC` when its arms
    /// only meet at function exit).
    pub(crate) fn rpc_of(&self, pc: usize) -> u32 {
        self.rpc[pc]
    }
}

/// Dense bitset over CFG nodes, sized at build time. Build-time only —
/// nothing here runs in the hot loop.
#[derive(Clone, PartialEq)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// All nodes `0..n` present.
    fn full(n: usize) -> NodeSet {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        NodeSet { words }
    }

    /// Only node `i` present (sized for `n` nodes).
    fn singleton(n: usize, i: usize) -> NodeSet {
        let mut words = vec![0u64; n.div_ceil(64)];
        words[i / 64] |= 1u64 << (i % 64);
        NodeSet { words }
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    fn intersect_with(&mut self, o: &NodeSet) {
        for (w, ow) in self.words.iter_mut().zip(&o.words) {
            *w &= ow;
        }
    }

    fn len(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

/// Post-dominator computation for one function's pc range `[lo, hi)`.
fn build_function(image: &DecodedImage, lo: usize, hi: usize, rpc: &mut [u32]) {
    // Recover block starts: blocks are contiguous in id order, so a new
    // block begins wherever the origin's block id changes.
    let mut starts: Vec<u32> = Vec::new();
    for pc in lo..hi {
        if pc == lo || image.origin[pc].block != image.origin[pc - 1].block {
            starts.push(pc as u32);
        }
    }
    let nb = starts.len();
    let exit = nb; // virtual exit node
    let block_of = |pc: u32| -> usize {
        debug_assert!((lo as u32..hi as u32).contains(&pc));
        starts.partition_point(|&s| s <= pc) - 1
    };

    // Terminator of block b sits on the last pc of the block.
    let term_pc = |b: usize| -> usize {
        if b + 1 < nb {
            starts[b + 1] as usize - 1
        } else {
            hi - 1
        }
    };
    let succs = |b: usize| -> [Option<usize>; 2] {
        match image.insts[term_pc(b)] {
            DecodedInst::Jump { target } => [Some(block_of(target)), None],
            DecodedInst::Branch { then_pc, else_pc, .. } => {
                [Some(block_of(then_pc)), Some(block_of(else_pc))]
            }
            _ => [Some(exit), None], // Return / Exit
        }
    };

    // Iterative post-dominator sets over the reverse CFG: nb real blocks
    // plus the virtual exit. pdom[b] = {b} ∪ ⋂ pdom[succ(b)].
    let nodes = nb + 1;
    let mut pdom: Vec<NodeSet> = (0..nb).map(|_| NodeSet::full(nodes)).collect();
    pdom.push(NodeSet::singleton(nodes, exit));
    let mut changed = true;
    let mut scratch = NodeSet::full(nodes);
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            scratch.words.iter_mut().for_each(|w| *w = u64::MAX);
            for s in succs(b).into_iter().flatten() {
                scratch.intersect_with(&pdom[s]);
            }
            scratch.insert(b);
            // Re-mask the tail word (the u64::MAX refill sets stray bits).
            if !nodes.is_multiple_of(64) {
                if let Some(last) = scratch.words.last_mut() {
                    *last &= (1u64 << (nodes % 64)) - 1;
                }
            }
            if scratch != pdom[b] {
                std::mem::swap(&mut scratch.words, &mut pdom[b].words);
                changed = true;
            }
        }
    }

    // The post-dominators of b form a chain; the immediate one is the
    // candidate whose own pdom set is largest (closest to b).
    for b in 0..nb {
        let t = term_pc(b);
        if !matches!(image.insts[t], DecodedInst::Branch { .. }) {
            continue;
        }
        let mut cands = pdom[b].clone();
        cands.remove(b);
        let mut best: Option<(usize, u32)> = None;
        for (c, c_pdom) in pdom.iter().enumerate() {
            if cands.contains(c) {
                let size = c_pdom.len();
                if best.is_none_or(|(_, s)| size > s) {
                    best = Some((c, size));
                }
            }
        }
        match best {
            Some((c, _)) if c != exit => rpc[t] = starts[c],
            _ => {} // reconverges only at function exit
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_and_link;

    fn table_for(src: &str) -> (DecodedImage, IpdomTable) {
        let module = parse_and_link(src).expect("kernel parses");
        let image = DecodedImage::decode(&module);
        let table = IpdomTable::build(&image);
        (image, table)
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
        let (image, table) = table_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  %r1 = add %r0, 1\n  jmp bb3\n\
             bb2:\n  %r1 = add %r0, 2\n  jmp bb3\n\
             bb3:\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        let rpc = table.rpc_of(br);
        assert_ne!(rpc, NO_RPC);
        // The rpc is bb3's first pc: the `exit` terminator.
        assert!(matches!(image.insts[rpc as usize], DecodedInst::Exit));
    }

    #[test]
    fn if_then_reconverges_at_fallthrough() {
        let (image, table) = table_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  %r1 = add %r0, 1\n  jmp bb2\n\
             bb2:\n  %r2 = add %r0, 3\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        let rpc = table.rpc_of(br) as usize;
        // Reconverges at bb2's first instruction.
        assert_eq!(image.origin[rpc].inst, 0);
        assert!(matches!(image.insts[rpc], DecodedInst::Bin { .. }));
    }

    #[test]
    fn loop_back_edge_reconverges_at_loop_exit() {
        let (image, table) = table_for(
            "kernel @k(params=1, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r1 = special.tid\n  jmp bb1\n\
             bb1:\n  %r1 = sub %r1, 1\n  brdiv %r1, bb1, bb2\n\
             bb2:\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        let rpc = table.rpc_of(br);
        assert_ne!(rpc, NO_RPC);
        // The loop branch reconverges at the loop exit block bb2.
        assert!(matches!(image.insts[rpc as usize], DecodedInst::Exit));
    }

    #[test]
    fn divergent_exit_has_no_rpc() {
        let (image, table) = table_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  brdiv %r0, bb1, bb2\n\
             bb1:\n  exit\n\
             bb2:\n  exit\n}\n",
        );
        let br = branch_pc(&image, 0);
        assert_eq!(table.rpc_of(br), NO_RPC);
    }

    #[test]
    fn non_branch_pcs_have_no_rpc() {
        let (image, table) = table_for(
            "kernel @k(params=0, regs=4, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  exit\n}\n",
        );
        for pc in 0..image.len() {
            assert_eq!(table.rpc_of(pc), NO_RPC);
        }
    }

    #[test]
    fn per_function_tables_are_independent() {
        let (image, table) = table_for(
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
        let (k_rpc, f_rpc) = (table.rpc_of(kernel_br), table.rpc_of(callee_br));
        assert_ne!(k_rpc, NO_RPC);
        assert_ne!(f_rpc, NO_RPC);
        // Each rpc lies inside its own function's pc range.
        assert_eq!(image.origin[k_rpc as usize].func, image.origin[kernel_br].func);
        assert_eq!(image.origin[f_rpc as usize].func, image.origin[callee_br].func);
        assert!(matches!(image.insts[f_rpc as usize], DecodedInst::Return { .. }));
    }
}
