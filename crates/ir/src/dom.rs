//! Dominator and post-dominator trees.
//!
//! [`DomTree::from_successors`] computes either tree over a plain
//! block-successor table with the Cooper–Harvey–Kennedy iterative
//! algorithm over (reverse) post-order. Post-dominance runs the same
//! algorithm on the reversed graph rooted at a *virtual exit* that
//! succeeds every block with no successors ([`crate::Terminator::Exit`] /
//! `Return`). Blocks that cannot reach an exit (infinite loops) have no
//! post-dominator and report `idom == None`.
//!
//! [`DomTree::dominators`] and [`DomTree::post_dominators`] adapt a
//! [`Function`]; the simulator's decoded image passes its own block graph,
//! so the compiler's barriers and the IPDOM stack reconverge at the same
//! points by construction.

use crate::{BlockId, Function};

/// A dominator (or post-dominator) tree over a function's blocks.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block; `None` for the root and for blocks
    /// not reachable in the traversal direction.
    idom: Vec<Option<BlockId>>,
    /// The tree root: the entry block, or `None` for post-dominance (the
    /// virtual exit).
    root: Option<BlockId>,
    /// Whether each block was reached by the traversal (from the entry, or
    /// backwards from any exit for post-dominance).
    reachable: Vec<bool>,
}

/// Index of the virtual exit in the internal numbering (only used for
/// post-dominance).
const VIRTUAL_EXIT: usize = usize::MAX;

impl DomTree {
    /// Computes the dominator tree of `func`.
    pub fn dominators(func: &Function) -> DomTree {
        Self::from_successors(&successor_table(func), Some(func.entry))
    }

    /// Computes the post-dominator tree of `func`.
    pub fn post_dominators(func: &Function) -> DomTree {
        Self::from_successors(&successor_table(func), None)
    }

    /// Computes a tree over the graph whose block `b` has the successors
    /// `succs[b]`: the dominator tree rooted at `entry` when it is given,
    /// otherwise the post-dominator tree rooted at the virtual exit.
    pub fn from_successors(succs: &[Vec<BlockId>], entry: Option<BlockId>) -> DomTree {
        let n = succs.len();
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (b, ss) in succs.iter().enumerate() {
            ss.iter().for_each(|s| preds[s.index()].push(BlockId::new(b)));
        }
        // Edges along the traversal direction and against it.
        let (out, inc) = if entry.is_some() { (succs, &preds[..]) } else { (&preds[..], succs) };

        // Roots: entry, or all exit blocks (blocks with no successors).
        let roots: Vec<BlockId> = match entry {
            Some(e) => vec![e],
            None => (0..n).filter(|&b| succs[b].is_empty()).map(BlockId::new).collect(),
        };

        // Post-order over the traversal direction, from the roots.
        let mut visited = vec![false; n];
        let mut order: Vec<BlockId> = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        for &root in &roots {
            if std::mem::replace(&mut visited[root.index()], true) {
                continue;
            }
            stack.push((root, 0));
            while let Some((b, next)) = stack.last_mut() {
                if let Some(&s) = out[b.index()].get(*next) {
                    *next += 1;
                    if !std::mem::replace(&mut visited[s.index()], true) {
                        stack.push((s, 0));
                    }
                } else {
                    order.push(*b);
                    stack.pop();
                }
            }
        }
        order.reverse();
        Self::solve(inc, &order, &roots, entry)
    }

    /// The dominator tree of a graph given by its predecessors `preds`
    /// and `rpo`: the blocks its entry `rpo[0]` reaches, in a reverse
    /// post-order of a depth-first walk from it. What a caller that
    /// already holds both pays is the fixpoint alone.
    pub fn from_predecessors(preds: &[Vec<BlockId>], rpo: &[BlockId]) -> DomTree {
        Self::solve(preds, rpo, &rpo[..1], Some(rpo[0]))
    }

    /// The Cooper–Harvey–Kennedy fixpoint: `inc[b]` are the edges into
    /// `b` along the traversal direction, `rpo` the blocks the traversal
    /// reaches from `roots`, in reverse post-order.
    fn solve(
        inc: &[Vec<BlockId>],
        rpo: &[BlockId],
        roots: &[BlockId],
        entry: Option<BlockId>,
    ) -> DomTree {
        let n = inc.len();
        let post = entry.is_none();

        // rpo_number: higher = earlier in reverse post-order.
        let mut rpo_number = vec![usize::MAX; n];
        let mut reachable = vec![false; n];
        for (i, &b) in rpo.iter().rev().enumerate() {
            rpo_number[b.index()] = i;
            reachable[b.index()] = true;
        }

        // Iterative CHK. `idom[b]` uses VIRTUAL_EXIT as the sentinel root
        // parent for multi-rooted post-dominance.
        let mut is_root = vec![false; n];
        let mut idom: Vec<Option<usize>> = vec![None; n];
        for &root in roots {
            is_root[root.index()] = true;
            idom[root.index()] = Some(if post { VIRTUAL_EXIT } else { root.index() });
        }

        // The virtual exit is an ancestor of every root, so it absorbs.
        let intersect =
            |idom: &[Option<usize>], num: &[usize], mut a: usize, mut b: usize| -> usize {
                while a != b {
                    if a == VIRTUAL_EXIT || b == VIRTUAL_EXIT {
                        return VIRTUAL_EXIT;
                    }
                    while num[a] < num[b] {
                        a = idom[a].expect("processed node without idom");
                        if a == VIRTUAL_EXIT || a == b {
                            break;
                        }
                    }
                    if a == b || a == VIRTUAL_EXIT {
                        continue;
                    }
                    while num[b] < num[a] {
                        b = idom[b].expect("processed node without idom");
                        if b == VIRTUAL_EXIT || b == a {
                            break;
                        }
                    }
                }
                a
            };

        let mut changed = true;
        while changed {
            changed = false;
            for b in rpo.iter().map(|b| b.index()) {
                if is_root[b] {
                    continue;
                }
                let mut new_idom: Option<usize> = None;
                for p in inc[b].iter().map(|p| p.index()) {
                    if idom[p].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_number, cur, p),
                    });
                }
                if new_idom != idom[b] && new_idom.is_some() {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        let idom = (0..n)
            .map(|b| match idom[b] {
                Some(VIRTUAL_EXIT) => None,
                Some(d) if d == b && !post => None, // entry's self-idom
                Some(d) => Some(BlockId::new(d)),
                None => None,
            })
            .collect();

        DomTree { idom, root: entry, reachable }
    }

    /// The immediate (post-)dominator of `b`, or `None` for the root /
    /// blocks with none.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom.get(b.index()).copied().flatten()
    }

    /// Whether `a` (post-)dominates `b`. Every block dominates itself;
    /// nothing dominates a block the traversal never reached.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(b) || !self.is_reachable(a) {
            return false;
        }
        if a == b {
            return true;
        }
        let mut cur = b;
        // Walk up the tree; depth is bounded by block count.
        for _ in 0..=self.idom.len() {
            match self.idom(cur) {
                Some(d) => {
                    if d == a {
                        return true;
                    }
                    cur = d;
                }
                None => return self.root == Some(a),
            }
        }
        false
    }

    /// Whether this block participates in the tree. For post-dominance a
    /// block disconnected from every exit (e.g. inside an infinite loop
    /// with no break) is unreachable and has no post-dominator.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable.get(b.index()).copied().unwrap_or(false)
    }
}

/// Each block's successors, indexed by block id.
fn successor_table(func: &Function) -> Vec<Vec<BlockId>> {
    func.blocks.iter().map(|(_, b)| b.term.successors()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuncKind, Function, Operand, Terminator};

    /// entry -> a -> c ; entry -> b -> c ; c -> exit_blk
    fn diamond() -> Function {
        let mut f = Function::new("d", FuncKind::Kernel, 0);
        let a = f.add_block(Some("a".into()));
        let b = f.add_block(Some("b".into()));
        let c = f.add_block(Some("c".into()));
        f.blocks[f.entry].term = Terminator::Branch {
            cond: Operand::imm_i64(0),
            then_bb: a,
            else_bb: b,
            divergent: false,
        };
        f.blocks[a].term = Terminator::Jump(c);
        f.blocks[b].term = Terminator::Jump(c);
        f.blocks[c].term = Terminator::Exit;
        f
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let dt = DomTree::dominators(&f);
        let (e, a, b, c) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert_eq!(dt.idom(e), None);
        assert_eq!(dt.idom(a), Some(e));
        assert_eq!(dt.idom(b), Some(e));
        assert_eq!(dt.idom(c), Some(e));
        assert!(dt.dominates(e, c));
        assert!(!dt.dominates(a, c));
        assert!(dt.dominates(c, c));
    }

    #[test]
    fn diamond_post_dominators() {
        let f = diamond();
        let pdt = DomTree::post_dominators(&f);
        let (e, a, b, c) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert_eq!(pdt.idom(e), Some(c));
        assert_eq!(pdt.idom(a), Some(c));
        assert_eq!(pdt.idom(b), Some(c));
        assert_eq!(pdt.idom(c), None);
        assert!(pdt.dominates(c, e));
        assert!(!pdt.dominates(a, e));
    }

    /// entry -> header; header -> body | exit_blk; body -> header
    fn simple_loop() -> Function {
        let mut f = Function::new("l", FuncKind::Kernel, 0);
        let header = f.add_block(Some("header".into()));
        let body = f.add_block(Some("body".into()));
        let exit_blk = f.add_block(Some("out".into()));
        f.blocks[f.entry].term = Terminator::Jump(header);
        f.blocks[header].term = Terminator::Branch {
            cond: Operand::imm_i64(0),
            then_bb: body,
            else_bb: exit_blk,
            divergent: false,
        };
        f.blocks[body].term = Terminator::Jump(header);
        f.blocks[exit_blk].term = Terminator::Exit;
        f
    }

    #[test]
    fn loop_dominators() {
        let f = simple_loop();
        let dt = DomTree::dominators(&f);
        let (e, h, b, x) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert_eq!(dt.idom(h), Some(e));
        assert_eq!(dt.idom(b), Some(h));
        assert_eq!(dt.idom(x), Some(h));
    }

    #[test]
    fn loop_post_dominators() {
        let f = simple_loop();
        let pdt = DomTree::post_dominators(&f);
        let (e, h, b, x) = (BlockId(0), BlockId(1), BlockId(2), BlockId(3));
        assert_eq!(pdt.idom(e), Some(h));
        assert_eq!(pdt.idom(b), Some(h));
        assert_eq!(pdt.idom(h), Some(x));
        assert!(pdt.dominates(x, e));
        assert!(pdt.is_reachable(b));
    }

    #[test]
    fn infinite_loop_has_no_post_dominator() {
        let mut f = Function::new("inf", FuncKind::Kernel, 0);
        let spin = f.add_block(Some("spin".into()));
        f.blocks[f.entry].term = Terminator::Jump(spin);
        f.blocks[spin].term = Terminator::Jump(spin);
        let pdt = DomTree::post_dominators(&f);
        assert_eq!(pdt.idom(BlockId(0)), None);
        assert!(!pdt.is_reachable(BlockId(1)));
    }

    #[test]
    fn multiple_exits_meet_at_virtual_exit() {
        // entry branches to two blocks that each exit: neither exit block
        // post-dominates entry; entry's ipdom is the virtual exit (None).
        let mut f = Function::new("two_exits", FuncKind::Kernel, 0);
        let a = f.add_block(None);
        let b = f.add_block(None);
        f.blocks[f.entry].term = Terminator::Branch {
            cond: Operand::imm_i64(0),
            then_bb: a,
            else_bb: b,
            divergent: false,
        };
        f.blocks[a].term = Terminator::Exit;
        f.blocks[b].term = Terminator::Exit;
        let pdt = DomTree::post_dominators(&f);
        assert_eq!(pdt.idom(f.entry), None);
        assert!(pdt.is_reachable(a));
        assert!(!pdt.dominates(a, f.entry));
    }
}
