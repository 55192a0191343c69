//! A small generic dataflow framework over bit-set lattices.
//!
//! The two barrier analyses of the paper (§4.2.1, Equations 1 and 2) are
//! *may* analyses with union meets, so the framework fixes the meet to
//! union and lets problems choose direction, domain size, boundary value,
//! and per-block transfer functions.

use crate::bitset::BitSet;
use crate::FunctionAnalyses;
use simt_ir::{BlockId, Function, IdVec};

/// Direction of propagation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Information flows from predecessors to successors.
    Forward,
    /// Information flows from successors to predecessors.
    Backward,
}

/// A dataflow problem over bit sets with union meet.
pub trait DataflowProblem {
    /// Propagation direction.
    fn direction(&self) -> Direction;
    /// Number of bits in the domain.
    fn domain_size(&self) -> usize;
    /// Value at the boundary (entry for forward problems, every exit for
    /// backward problems). Defaults to the empty set.
    fn boundary(&self) -> BitSet {
        BitSet::new(self.domain_size())
    }
    /// Transfer function of one block, applied to the block's input
    /// (its IN for forward problems, its OUT for backward problems).
    fn transfer(&self, block: BlockId, input: &BitSet) -> BitSet;
}

/// Fixpoint of a dataflow problem.
#[derive(Clone, Debug)]
pub struct DataflowResult {
    /// Value at block entry (forward: IN; backward: the meet over
    /// successors is stored in `out`, and `input` holds the transfer
    /// result at the top of the block — i.e. `input[b]` is always the
    /// value *at the block's entry point* in program order).
    pub entry: IdVec<BlockId, BitSet>,
    /// Value at block exit in program order.
    pub exit: IdVec<BlockId, BitSet>,
    /// Blocks reachable from the entry: the only blocks the solve
    /// propagates over (the others keep empty values).
    pub reachable: BitSet,
}

/// Solves the problem to a fixpoint, sweeping in (reverse) post-order for
/// fast convergence. Values flow only along blocks the entry reaches: an
/// unreachable predecessor's transfer still "generates" facts from an
/// empty input, which must not contaminate a meet.
pub fn solve(
    func: &Function,
    fa: &mut FunctionAnalyses,
    problem: &dyn DataflowProblem,
) -> DataflowResult {
    let cfg = fa.of(func);
    let n = func.blocks.len();
    let size = problem.domain_size();
    let (rpo, reachable) = (cfg.rpo(), cfg.reachable());

    let mut entry: IdVec<BlockId, BitSet> = IdVec::with_capacity(n);
    let mut exit: IdVec<BlockId, BitSet> = IdVec::with_capacity(n);
    for _ in 0..n {
        entry.push(BitSet::new(size));
        exit.push(BitSet::new(size));
    }

    match problem.direction() {
        Direction::Forward => {
            entry[func.entry] = problem.boundary();
            let mut changed = true;
            while changed {
                changed = false;
                for &b in rpo {
                    if !reachable.contains(b.index()) {
                        continue;
                    }
                    let mut input =
                        if b == func.entry { problem.boundary() } else { BitSet::new(size) };
                    for &p in cfg.preds(b) {
                        if reachable.contains(p.index()) {
                            input.union_with(&exit[p]);
                        }
                    }
                    let output = problem.transfer(b, &input);
                    if input != entry[b] || output != exit[b] {
                        entry[b] = input;
                        exit[b] = output;
                        changed = true;
                    }
                }
            }
        }
        Direction::Backward => {
            let mut changed = true;
            while changed {
                changed = false;
                for &b in rpo.iter().rev() {
                    if !reachable.contains(b.index()) {
                        continue;
                    }
                    let succs = cfg.succs(b);
                    let output = if succs.is_empty() {
                        problem.boundary()
                    } else {
                        let mut acc = BitSet::new(size);
                        for &s in succs {
                            acc.union_with(&entry[s]);
                        }
                        acc
                    };
                    let input = problem.transfer(b, &output);
                    if input != entry[b] || output != exit[b] {
                        entry[b] = input;
                        exit[b] = output;
                        changed = true;
                    }
                }
            }
        }
    }

    DataflowResult { entry, exit, reachable: reachable.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{FuncKind, Function, Operand, Terminator};

    /// A trivial forward "reachability of a token" problem: block `gen_in`
    /// generates bit 0; no block kills.
    struct TokenProblem {
        gen_in: BlockId,
    }

    impl DataflowProblem for TokenProblem {
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn domain_size(&self) -> usize {
            1
        }
        fn transfer(&self, block: BlockId, input: &BitSet) -> BitSet {
            let mut out = input.clone();
            if block == self.gen_in {
                out.insert(0);
            }
            out
        }
    }

    #[test]
    fn forward_token_reaches_successors_only() {
        // entry -> a -> c; entry -> b -> c
        let mut f = Function::new("d", FuncKind::Kernel, 0);
        let a = f.add_block(None);
        let b = f.add_block(None);
        let c = f.add_block(None);
        f.blocks[f.entry].term = Terminator::Branch {
            cond: Operand::imm_i64(0),
            then_bb: a,
            else_bb: b,
            divergent: false,
        };
        f.blocks[a].term = Terminator::Jump(c);
        f.blocks[b].term = Terminator::Jump(c);
        f.blocks[c].term = Terminator::Exit;

        let r = solve(&f, &mut FunctionAnalyses::default(), &TokenProblem { gen_in: a });
        assert!(!r.entry[a].contains(0));
        assert!(r.exit[a].contains(0));
        assert!(!r.exit[b].contains(0));
        assert!(r.entry[c].contains(0)); // union over preds: a generated it
    }

    /// Backward problem: bit 0 is "a use lies ahead"; block `use_in`
    /// generates it.
    struct UseAheadProblem {
        use_in: BlockId,
    }

    impl DataflowProblem for UseAheadProblem {
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn domain_size(&self) -> usize {
            1
        }
        fn transfer(&self, block: BlockId, input: &BitSet) -> BitSet {
            let mut out = input.clone();
            if block == self.use_in {
                out.insert(0);
            }
            out
        }
    }

    #[test]
    fn backward_liveness_through_loop() {
        // entry -> h; h -> body | out; body -> h. Use in body.
        let mut f = Function::new("l", FuncKind::Kernel, 0);
        let h = f.add_block(None);
        let body = f.add_block(None);
        let out = f.add_block(None);
        f.blocks[f.entry].term = Terminator::Jump(h);
        f.blocks[h].term = Terminator::Branch {
            cond: Operand::imm_i64(0),
            then_bb: body,
            else_bb: out,
            divergent: false,
        };
        f.blocks[body].term = Terminator::Jump(h);
        f.blocks[out].term = Terminator::Exit;

        let r = solve(&f, &mut FunctionAnalyses::default(), &UseAheadProblem { use_in: body });
        assert!(r.entry[f.entry].contains(0));
        assert!(r.entry[h].contains(0));
        assert!(r.entry[body].contains(0));
        assert!(!r.entry[out].contains(0));
        // The loop edge propagates liveness around the cycle.
        assert!(r.exit[body].contains(0));
    }
}
