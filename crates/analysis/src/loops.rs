//! Natural-loop discovery and the loop nesting forest.
//!
//! A back edge `tail -> header` (where `header` dominates `tail`) defines a
//! natural loop: `header` plus every block that can reach `tail` without
//! passing through `header`. Loops sharing a header are merged. The nest
//! depth per block feeds the §4.5 cost heuristics.

use crate::analyses::{Cfg, FunctionAnalyses};
use crate::bitset::BitSet;
use simt_ir::{BlockId, DomTree, Function};

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge(s)).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub body: BitSet,
    /// Back-edge sources (`tail`s) for this header.
    pub latches: Vec<BlockId>,
    /// Index of the innermost enclosing loop in [`LoopForest::loops`], if
    /// any.
    pub parent: Option<usize>,
}

impl Loop {
    /// Whether the block belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.contains(b.index())
    }

    /// Edges leaving the loop, as `(from_in_loop, to_outside)` pairs.
    pub fn exit_edges(&self, func: &Function) -> Vec<(BlockId, BlockId)> {
        let mut out = Vec::new();
        for idx in self.body.iter() {
            let b = BlockId::new(idx);
            for s in func.successors(b) {
                if !self.contains(s) {
                    out.push((b, s));
                }
            }
        }
        out
    }
}

/// All natural loops of a function, with nesting information.
#[derive(Clone, Debug)]
pub struct LoopForest {
    /// The loops, outermost-first within each nest chain is *not*
    /// guaranteed; use [`Loop::parent`] / [`LoopForest::depth`].
    pub loops: Vec<Loop>,
    depth: Vec<u32>,
    innermost: Vec<Option<usize>>,
    preheaders: Vec<Option<BlockId>>,
}

impl LoopForest {
    /// Discovers the natural loops of `func` using its dominator tree
    /// (passes read [`Cfg::loops`] instead).
    pub fn new(func: &Function, dom: &DomTree) -> LoopForest {
        Self::build(FunctionAnalyses::default().of(func), dom)
    }

    /// Discovers the natural loops of `cfg` using its dominator tree.
    pub(crate) fn build(cfg: &Cfg, dom: &DomTree) -> LoopForest {
        let n = cfg.num_blocks();

        // Find back edges and group them by header.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut latches_of: Vec<Vec<BlockId>> = Vec::new();
        for b in (0..n).map(BlockId::new) {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    match headers.iter().position(|&h| h == s) {
                        Some(i) => latches_of[i].push(b),
                        None => {
                            headers.push(s);
                            latches_of.push(vec![b]);
                        }
                    }
                }
            }
        }

        // Natural loop body per header: reverse reachability from latches,
        // stopping at the header.
        let mut loops: Vec<Loop> = Vec::new();
        for (hi, &header) in headers.iter().enumerate() {
            let latches = latches_of[hi].iter().copied();
            let mut body =
                BitSet::reach(n, latches, |b| cfg.preds(b).iter().copied(), |b| b != header);
            body.insert(header.index());
            loops.push(Loop { header, body, latches: latches_of[hi].clone(), parent: None });
        }

        // Nesting: loop A is nested in B if A != B and A.body ⊆ B.body.
        // The parent is the smallest strict superset.
        for i in 0..loops.len() {
            let mut parent: Option<usize> = None;
            for j in 0..loops.len() {
                if i == j {
                    continue;
                }
                if loops[i].body.is_subset(&loops[j].body) && loops[i].body != loops[j].body {
                    parent = match parent {
                        None => Some(j),
                        Some(p) if loops[j].body.is_subset(&loops[p].body) => Some(j),
                        keep => keep,
                    };
                }
            }
            loops[i].parent = parent;
        }

        // Depth and innermost loop per block.
        let mut depth = vec![0u32; n];
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for b in 0..n {
            let mut best: Option<usize> = None;
            let mut d = 0;
            for (li, l) in loops.iter().enumerate() {
                if l.body.contains(b) {
                    d += 1;
                    best = match best {
                        None => Some(li),
                        Some(cur) if l.body.is_subset(&loops[cur].body) => Some(li),
                        keep => keep,
                    };
                }
            }
            depth[b] = d;
            innermost[b] = best;
        }

        let preheaders = loops
            .iter()
            .map(|l| {
                let mut outside = cfg.preds(l.header).iter().filter(|p| !l.contains(**p));
                match (outside.next(), outside.next()) {
                    (Some(&p), None) => Some(p),
                    _ => None,
                }
            })
            .collect();

        LoopForest { loops, depth, innermost, preheaders }
    }

    /// Loop nest depth of a block (0 = not in any loop).
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth.get(b.index()).copied().unwrap_or(0)
    }

    /// Index of the innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<usize> {
        self.innermost.get(b.index()).copied().flatten()
    }

    /// The loop headed exactly at `header`, if one exists.
    pub fn loop_with_header(&self, header: BlockId) -> Option<&Loop> {
        self.loops.iter().find(|l| l.header == header)
    }

    /// The preheader of loop `idx`: the unique out-of-loop predecessor of
    /// its header, if there is exactly one.
    pub fn preheader(&self, idx: usize) -> Option<BlockId> {
        self.preheaders[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{FuncKind, Function, Operand, Terminator};

    /// entry -> oh ; oh -> ih | done ; ih -> ib | oe ; ib -> ih ; oe -> oh
    /// (outer loop header `oh`, inner loop `ih`/`ib`, outer latch `oe`).
    fn nested_loops() -> Function {
        let mut f = Function::new("nest", FuncKind::Kernel, 0);
        let oh = f.add_block(Some("outer_header".into()));
        let ih = f.add_block(Some("inner_header".into()));
        let ib = f.add_block(Some("inner_body".into()));
        let oe = f.add_block(Some("outer_epilog".into()));
        let done = f.add_block(Some("done".into()));
        let c = Operand::imm_i64(0);
        f.blocks[f.entry].term = Terminator::Jump(oh);
        f.blocks[oh].term =
            Terminator::Branch { cond: c, then_bb: ih, else_bb: done, divergent: false };
        f.blocks[ih].term =
            Terminator::Branch { cond: c, then_bb: ib, else_bb: oe, divergent: true };
        f.blocks[ib].term = Terminator::Jump(ih);
        f.blocks[oe].term = Terminator::Jump(oh);
        f.blocks[done].term = Terminator::Exit;
        f
    }

    #[test]
    fn finds_nested_loops() {
        let f = nested_loops();
        let dom = DomTree::dominators(&f);
        let forest = LoopForest::new(&f, &dom);
        assert_eq!(forest.loops.len(), 2);

        let oh = f.block_by_label("outer_header").unwrap();
        let ih = f.block_by_label("inner_header").unwrap();
        let ib = f.block_by_label("inner_body").unwrap();
        let oe = f.block_by_label("outer_epilog").unwrap();
        let done = f.block_by_label("done").unwrap();

        let outer = forest.loop_with_header(oh).unwrap();
        let inner = forest.loop_with_header(ih).unwrap();
        assert!(outer.contains(ih) && outer.contains(ib) && outer.contains(oe));
        assert!(!outer.contains(done));
        assert!(inner.contains(ib));
        assert!(!inner.contains(oe));

        // Nesting and depth.
        let inner_idx = forest.loops.iter().position(|l| l.header == ih).unwrap();
        let outer_idx = forest.loops.iter().position(|l| l.header == oh).unwrap();
        assert_eq!(forest.loops[inner_idx].parent, Some(outer_idx));
        assert_eq!(forest.loops[outer_idx].parent, None);
        assert_eq!(forest.depth(ib), 2);
        assert_eq!(forest.depth(oe), 1);
        assert_eq!(forest.depth(done), 0);
        assert_eq!(forest.innermost(ib), Some(inner_idx));
        assert_eq!(forest.innermost(oe), Some(outer_idx));
    }

    #[test]
    fn inner_loop_exit_edges() {
        let f = nested_loops();
        let dom = DomTree::dominators(&f);
        let forest = LoopForest::new(&f, &dom);
        let ih = f.block_by_label("inner_header").unwrap();
        let oe = f.block_by_label("outer_epilog").unwrap();
        let inner = forest.loop_with_header(ih).unwrap();
        assert_eq!(inner.exit_edges(&f), vec![(ih, oe)]);
    }

    #[test]
    fn preheader_found_when_unique() {
        let f = nested_loops();
        let dom = DomTree::dominators(&f);
        let forest = LoopForest::new(&f, &dom);
        let oh = f.block_by_label("outer_header").unwrap();
        let ih = f.block_by_label("inner_header").unwrap();
        let outer_idx = forest.loops.iter().position(|l| l.header == oh).unwrap();
        let inner_idx = forest.loops.iter().position(|l| l.header == ih).unwrap();
        assert_eq!(forest.preheader(outer_idx), Some(f.entry));
        // The inner loop's header is entered only from inside the outer
        // loop (oh), which is outside the *inner* loop — a valid preheader.
        assert_eq!(forest.preheader(inner_idx), Some(oh));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut f = Function::new("s", FuncKind::Kernel, 0);
        f.blocks[f.entry].term = Terminator::Exit;
        let dom = DomTree::dominators(&f);
        let forest = LoopForest::new(&f, &dom);
        assert!(forest.loops.is_empty());
        assert_eq!(forest.depth(f.entry), 0);
    }

    #[test]
    fn self_loop_detected() {
        let mut f = Function::new("sl", FuncKind::Kernel, 0);
        let spin = f.add_block(Some("spin".into()));
        let out = f.add_block(None);
        f.blocks[f.entry].term = Terminator::Jump(spin);
        f.blocks[spin].term = Terminator::Branch {
            cond: Operand::imm_i64(0),
            then_bb: spin,
            else_bb: out,
            divergent: false,
        };
        f.blocks[out].term = Terminator::Exit;
        let dom = DomTree::dominators(&f);
        let forest = LoopForest::new(&f, &dom);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].header, spin);
        assert_eq!(forest.loops[0].latches, vec![spin]);
        assert_eq!(forest.depth(spin), 1);
    }
}
