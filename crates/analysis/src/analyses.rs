//! One function's CFG analyses, shared by every pass that reads them.
//!
//! [`FunctionAnalyses`] keeps a function's successor table and builds
//! predecessors, reverse post-order, dominators, post-dominators and the
//! loop forest from it on first use. Every read goes through
//! [`FunctionAnalyses::of`], which first compares the function's current
//! successors with the table (O(blocks), no allocation) and starts over
//! when they differ. Passes write `Block::term` and `Function::blocks`
//! directly, so the check is on the shape itself, which no write can
//! bypass; edits to instructions alone keep everything built so far.

use crate::{BitSet, LoopForest};
use simt_ir::{BlockId, DomTree, Function, Terminator};
use std::cell::{Cell, OnceCell};

thread_local! {
    static RPO_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// How many reverse post-orders [`Cfg`]s have built on this thread: one
/// per CFG shape a view was asked about, so a count above the number of
/// shapes means some caller analysed a CFG afresh instead of sharing the
/// view that had it.
pub fn rpo_builds() -> usize {
    RPO_BUILDS.with(Cell::get)
}

/// The analyses of one function, rebuilt whenever its CFG changes shape.
/// Start from `FunctionAnalyses::default()`: the first read builds.
#[derive(Clone, Debug, Default)]
pub struct FunctionAnalyses {
    cfg: Cfg,
}

impl FunctionAnalyses {
    /// The analyses of `func`'s current CFG, after dropping those of an
    /// earlier shape. The result borrows `func`, so no edit outlives it.
    pub fn of<'a>(&'a mut self, func: &'a Function) -> &'a Cfg {
        if !self.cfg.matches(func) {
            let succs = func.blocks.iter().map(|(_, b)| b.term.successors()).collect();
            self.cfg = Cfg { entry: Some(func.entry), succs, ..Cfg::default() };
        }
        &self.cfg
    }
}

/// One CFG shape and its analyses, each built on first use.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    entry: Option<BlockId>,
    succs: Vec<Vec<BlockId>>,
    preds: OnceCell<Vec<Vec<BlockId>>>,
    /// Reverse post-order and the blocks the entry reaches.
    order: OnceCell<(Vec<BlockId>, BitSet)>,
    dom: OnceCell<DomTree>,
    post_dom: OnceCell<DomTree>,
    loops: OnceCell<LoopForest>,
}

impl Cfg {
    fn matches(&self, func: &Function) -> bool {
        let same = |term: &Terminator, succs: &[BlockId]| match *term {
            Terminator::Jump(b) => succs == [b],
            Terminator::Branch { then_bb: t, else_bb: e, .. } if t == e => succs == [t],
            Terminator::Branch { then_bb: t, else_bb: e, .. } => succs == [t, e],
            Terminator::Return(_) | Terminator::Exit => succs.is_empty(),
        };
        self.entry == Some(func.entry)
            && self.succs.len() == func.blocks.len()
            && func.blocks.iter().zip(&self.succs).all(|((_, b), s)| same(&b.term, s))
    }

    /// Number of blocks.
    pub(crate) fn num_blocks(&self) -> usize {
        self.succs.len()
    }

    /// The successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// The predecessors of `b`, in block-id order.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.pred_table()[b.index()]
    }

    fn pred_table(&self) -> &[Vec<BlockId>] {
        self.preds.get_or_init(|| {
            let mut preds = vec![Vec::new(); self.succs.len()];
            for (p, ss) in self.succs.iter().enumerate() {
                ss.iter().for_each(|s| preds[s.index()].push(BlockId::new(p)));
            }
            preds
        })
    }

    /// Every block, in reverse post-order from the entry, then the blocks
    /// the entry cannot reach in id order.
    pub fn rpo(&self) -> &[BlockId] {
        &self.order().0
    }

    /// The blocks reachable from the entry.
    pub fn reachable(&self) -> &BitSet {
        &self.order().1
    }

    fn order(&self) -> &(Vec<BlockId>, BitSet) {
        self.order.get_or_init(|| {
            RPO_BUILDS.with(|n| n.set(n.get() + 1));
            let (n, entry) = (self.succs.len(), self.entry.expect("built by `of`"));
            let mut seen = BitSet::new(n);
            seen.insert(entry.index());
            let (mut post, mut stack) = (Vec::with_capacity(n), vec![(entry, 0)]);
            while let Some((b, next)) = stack.last_mut() {
                if let Some(&s) = self.succs[b.index()].get(*next) {
                    *next += 1;
                    if seen.insert(s.index()) {
                        stack.push((s, 0));
                    }
                } else {
                    post.push(*b);
                    stack.pop();
                }
            }
            post.reverse();
            post.extend((0..n).map(BlockId::new).filter(|b| !seen.contains(b.index())));
            (post, seen)
        })
    }

    /// The dominator tree, from the predecessors and the reverse
    /// post-order this view holds.
    pub fn dom(&self) -> &DomTree {
        self.dom.get_or_init(|| {
            DomTree::from_predecessors(self.pred_table(), &self.rpo()[..self.reachable().len()])
        })
    }

    /// The post-dominator tree.
    pub fn post_dom(&self) -> &DomTree {
        self.post_dom.get_or_init(|| {
            #[cfg(test)]
            tests::POST_DOM_BUILDS.with(|n| n.set(n.get() + 1));
            DomTree::from_successors(&self.succs, None)
        })
    }

    /// The natural loops.
    pub fn loops(&self) -> &LoopForest {
        self.loops.get_or_init(|| LoopForest::build(self, self.dom()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{parse_module, BarrierId, BarrierOp, Inst};
    use std::cell::Cell;

    thread_local! {
        pub(super) static POST_DOM_BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    fn builds() -> usize {
        POST_DOM_BUILDS.with(Cell::get)
    }

    fn diamond() -> Function {
        let m = parse_module(
            "kernel @k(params=0, regs=2, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.lane\n  %r1 = and %r0, 1\n  brdiv %r1, bb1, bb2\n\
             bb1:\n  jmp bb3\n\
             bb2:\n  jmp bb3\n\
             bb3:\n  exit\n}\n",
        )
        .unwrap();
        let f = m.functions.iter().next().unwrap().1.clone();
        f
    }

    #[test]
    fn post_dominators_are_built_once_per_cfg_shape() {
        let mut f = diamond();
        let mut fa = FunctionAnalyses::default();
        let start = builds();
        assert_eq!(fa.of(&f).post_dom().idom(BlockId(0)), Some(BlockId(3)));
        assert_eq!(fa.of(&f).post_dom().idom(BlockId(1)), Some(BlockId(3)));
        assert_eq!(builds() - start, 1, "an unchanged CFG reuses the tree");

        f.blocks[BlockId(1)].insts.push(Inst::Barrier(BarrierOp::Join(BarrierId(0))));
        fa.of(&f).post_dom();
        assert_eq!(builds() - start, 1, "an instruction edit keeps the tree");

        let mid = f.split_edge(BlockId(1), BlockId(3));
        assert_eq!(fa.of(&f).post_dom().idom(BlockId(1)), Some(mid));
        assert_eq!(builds() - start, 2, "split_edge rebuilds the tree");

        f.blocks[BlockId(2)].term = Terminator::Exit;
        assert_eq!(fa.of(&f).post_dom().idom(BlockId(0)), None);
        assert_eq!(builds() - start, 3, "a direct terminator write rebuilds the tree");
    }

    /// The view's dominators come from its predecessors and RPO; the tree
    /// is the one the successor table gives, dead blocks and loops too.
    #[test]
    fn dominators_from_the_view_match_the_successor_table() {
        let m = parse_module(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = special.lane\n  brdiv %r0, bb1, bb4\n\
             bb1:\n  %r1 = and %r0, 1\n  brdiv %r1, bb2, bb3\n\
             bb2:\n  jmp bb1\n\
             bb3:\n  jmp bb4\n\
             bb4:\n  exit\n\
             bb5:\n  jmp bb2\n}\n",
        )
        .unwrap();
        for f in [m.functions.iter().next().unwrap().1.clone(), diamond()] {
            let mut fa = FunctionAnalyses::default();
            let (view, table) = (fa.of(&f).dom(), DomTree::dominators(&f));
            for (b, _) in f.blocks.iter() {
                assert_eq!(view.idom(b), table.idom(b), "idom of {b}");
                assert_eq!(view.is_reachable(b), table.is_reachable(b), "{b} reachable");
            }
        }
    }

    #[test]
    fn predecessors_of_diamond() {
        let mut f = diamond();
        let dead = f.add_block(None);
        f.blocks[dead].term = Terminator::Jump(BlockId(3));
        let mut fa = FunctionAnalyses::default();
        let cfg = fa.of(&f);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2), dead]);
        assert!(cfg.preds(f.entry).is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_visits_all() {
        let mut f = diamond();
        let dead = f.add_block(None);
        f.blocks[dead].term = Terminator::Jump(BlockId(3));
        let mut fa = FunctionAnalyses::default();
        let cfg = fa.of(&f);
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), f.blocks.len());
        // The join comes after both arms; the unreachable block comes last.
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)) && pos(BlockId(3)) > pos(BlockId(2)));
        assert_eq!(rpo.last(), Some(&dead));
        assert!(!cfg.reachable().contains(dead.index()));
        assert_eq!(cfg.reachable().len(), 4);
    }
}
