//! Barrier register allocation.
//!
//! The passes allocate a fresh virtual barrier register per insertion
//! site, but hardware barrier registers are a scarce physical resource —
//! Volta exposes **16** per warp. A production implementation of the
//! paper must therefore recycle registers whose lifetimes cannot
//! overlap, exactly like ordinary register allocation — except that the
//! notion of "overlap" is *warp-temporal*, not path-based: barrier
//! registers are warp-global, and on a machine without implicit
//! reconvergence the two sides of a divergent branch execute
//! interleaved. A register live only on the then-side and one live only
//! on the else-side never coexist on any path, yet their participation
//! masks occupy the machine at the same time.
//!
//! Two registers are therefore allowed to share a color only when a
//! **warp-wide fence** provably orders their lifetimes: a `wait` whose
//! barrier was joined once at a point dominating it, is never cancelled,
//! rejoined or copied into, sits outside any cycle, and whose block
//! post-dominates the entry. Every thread of the warp must arrive at
//! such a wait before any thread proceeds, so everything before it is
//! warp-temporally ordered before everything after. Register `a` may
//! reuse `b`'s color when some fence `w` has: all of `a`'s references
//! before `w` and not reachable from it, `a`'s mask provably drained at
//! `w` (by a cancel-insensitive may-populated dataflow — `cancel` only
//! removes the executing lane, so it never counts as a drain), and all
//! of `b`'s references dominated by `w`.
//!
//! Barriers the function never populates (no join/rejoin/copy-dst) keep
//! distinct colors after the used ones, so even degenerate inputs stay
//! verifiable.

use crate::error::PassError;
use simt_analysis::{solve, BitSet, DataflowProblem, Direction, DomTree, FunctionAnalyses};
use simt_ir::{BarrierId, BarrierOp, BlockId, FuncKind, Function, Inst, Module};

/// The number of convergence-barrier registers a Volta warp exposes.
pub const VOLTA_BARRIER_REGISTERS: usize = 16;

/// One instruction's effect on allocation live ranges. `Join`/`Rejoin`
/// populate a mask; a `bcopy` writes its destination register whatever
/// the source holds (so the destination is live from the copy); `wait`
/// releases only once the mask is empty, so downstream of a wait the
/// register is free. `cancel` is deliberately NOT a kill: it removes
/// just the executing lane, and diverged lanes elsewhere in the warp
/// may still be participants.
fn alloc_range_step(inst: &Inst, state: &mut BitSet) {
    if let Inst::Barrier(op) = inst {
        match op {
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                state.insert(b.index());
            }
            BarrierOp::Copy { dst, .. } => {
                state.insert(dst.index());
            }
            BarrierOp::Wait(b) => {
                state.remove(b.index());
            }
            BarrierOp::Cancel(_) | BarrierOp::ArrivedCount { .. } => {}
        }
    }
}

/// The cancel-insensitive may-live analysis driving interference.
struct AllocRanges<'a> {
    func: &'a Function,
    nb: usize,
}

impl DataflowProblem for AllocRanges<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn domain_size(&self) -> usize {
        self.nb
    }

    fn transfer(&self, block: BlockId, input: &BitSet) -> BitSet {
        let mut state = input.clone();
        for inst in &self.func.blocks[block].insts {
            alloc_range_step(inst, &mut state);
        }
        state
    }
}

/// A program point: block plus instruction index within it.
type Point = (BlockId, usize);

/// Per-barrier reference classification for fence detection.
struct BarrierRefs {
    /// Every instruction referencing the register.
    refs: Vec<Vec<Point>>,
    /// `Join` sites only.
    joins: Vec<Vec<Point>>,
    /// `Wait` sites only.
    waits: Vec<Vec<Point>>,
    /// Whether a rejoin/cancel/copy-into disqualifies the register from
    /// acting as a fence (its membership is no longer "everyone joined
    /// once, everyone waits once").
    dirty: Vec<bool>,
}

fn collect_refs(func: &Function, nb: usize) -> BarrierRefs {
    let mut r = BarrierRefs {
        refs: vec![Vec::new(); nb],
        joins: vec![Vec::new(); nb],
        waits: vec![Vec::new(); nb],
        dirty: vec![false; nb],
    };
    for (block, data) in func.blocks.iter() {
        for (i, inst) in data.insts.iter().enumerate() {
            let Inst::Barrier(op) = *inst else { continue };
            match op {
                BarrierOp::Join(b) => r.joins[b.index()].push((block, i)),
                BarrierOp::Wait(b) => r.waits[b.index()].push((block, i)),
                BarrierOp::Rejoin(b) | BarrierOp::Cancel(b) | BarrierOp::Copy { dst: b, .. } => {
                    r.dirty[b.index()] = true;
                }
                BarrierOp::ArrivedCount { .. } => {}
            }
            registers(op).for_each(|b| r.refs[b.index()].push((block, i)));
        }
    }
    r
}

/// Every barrier register `op` names (a copy names two).
fn registers(op: BarrierOp) -> impl Iterator<Item = BarrierId> {
    let copy = match op {
        BarrierOp::Copy { dst, src } => [Some(dst), Some(src)],
        _ => [None, None],
    };
    op.barrier().into_iter().chain(copy.into_iter().flatten())
}

/// A warp-wide fence: the `wait` of a barrier every thread joins exactly
/// once beforehand and can neither skip nor revisit.
struct Fence {
    /// The fence barrier's register index.
    bar: usize,
    /// The wait instruction's location.
    at: Point,
    /// Blocks strictly after the fence.
    after: BitSet,
    /// May-populated registers at the fence (cancel-insensitive).
    populated: BitSet,
}

impl Fence {
    /// Is `pt` strictly after this fence in warp time?
    fn is_after(&self, pt: Point) -> bool {
        self.after.contains(pt.0.index()) || (pt.0 == self.at.0 && pt.1 > self.at.1)
    }

    /// Is `pt` strictly before this fence (every path to it then passes
    /// the fence before any post-fence code runs)? Dominance of the
    /// fence block over the point's block is enough: leaving the fence
    /// block means having executed the wait.
    fn is_dominated(&self, dom: &DomTree, pt: Point) -> bool {
        if pt.0 == self.at.0 {
            return pt.1 > self.at.1;
        }
        dom.dominates(self.at.0, pt.0)
    }
}

/// Marks every pair of *warp-temporally overlapping* barriers in `func`
/// as interfering: two registers interfere unless some warp-wide fence
/// separates their lifetimes. Path-based liveness alone would be unsound
/// here — registers live on opposite sides of a divergent branch never
/// meet on a path but coexist in the machine.
fn mark_interference(
    func: &Function,
    fa: &mut FunctionAnalyses,
    nb: usize,
    interferes: &mut [Vec<bool>],
) {
    let refs = collect_refs(func, nb);
    let ranges = solve(func, fa, &AllocRanges { func, nb });
    let cfg = fa.of(func);

    // Fences only make sense in kernels: a wait inside a device function
    // synchronizes only the lanes that happen to call it.
    let mut fences: Vec<Fence> = Vec::new();
    if func.kind == FuncKind::Kernel {
        for b in 0..nb {
            if refs.dirty[b] || refs.joins[b].len() != 1 || refs.waits[b].len() != 1 {
                continue;
            }
            let (jb, ji) = refs.joins[b][0];
            let (wb, wi) = refs.waits[b][0];
            let join_dominates = if jb == wb { ji < wi } else { cfg.dom().dominates(jb, wb) };
            // Every thread joins before arriving, every thread arrives
            // (the wait post-dominates entry), and the wait runs once
            // (its block is outside any cycle).
            if !join_dominates || !cfg.post_dom().dominates(wb, func.entry) {
                continue;
            }
            let succs = |b| cfg.succs(b).iter().copied();
            let after = BitSet::reach(func.blocks.len(), succs(wb), succs, |_| true);
            if after.contains(wb.index()) {
                continue;
            }
            let mut populated = ranges.entry[wb].clone();
            for inst in func.blocks[wb].insts.iter().take(wi) {
                alloc_range_step(inst, &mut populated);
            }
            fences.push(Fence { bar: b, at: (wb, wi), after, populated });
        }
    }

    // `a` may precede `b` across fence `f` when all of `a`'s references
    // are pre-fence and its mask is drained there, and all of `b`'s
    // references execute strictly after the fence.
    let precedes = |a: usize, b: usize| -> bool {
        fences.iter().any(|f| {
            let drained = a == f.bar || !f.populated.contains(a);
            drained
                && refs.refs[a].iter().all(|&pt| !f.is_after(pt))
                && refs.refs[b].iter().all(|&pt| f.is_dominated(cfg.dom(), pt))
        })
    };

    #[allow(clippy::needless_range_loop)] // symmetric writes at [a][b] and [b][a]
    for a in 0..nb {
        if refs.refs[a].is_empty() {
            continue;
        }
        for b in (a + 1)..nb {
            if refs.refs[b].is_empty() {
                continue;
            }
            if !precedes(a, b) && !precedes(b, a) {
                interferes[a][b] = true;
                interferes[b][a] = true;
            }
        }
    }
}

/// Result of barrier allocation on one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierAllocReport {
    /// Barrier registers before allocation.
    pub before: usize,
    /// Barrier registers after allocation.
    pub after: usize,
    /// `mapping[old] = new` register assignment.
    pub mapping: Vec<BarrierId>,
}

/// Allocates (recycles) barrier registers in a single function.
///
/// Barrier state is warp-global, so for modules whose *device functions*
/// touch barriers (the §4.4 interprocedural pattern) use
/// [`allocate_barriers_module`], which renames consistently across the
/// whole module.
///
/// # Errors
///
/// Returns [`PassError::Module`] if the colored register count exceeds
/// `limit`.
///
/// ```
/// use simt_ir::parse_module;
/// use simt_analysis::FunctionAnalyses;
/// use specrecon_core::allocate_barriers;
///
/// // Two sequential barriered regions can share one register pair.
/// let m = parse_module(
///     "kernel @k(params=0, regs=1, barriers=2, entry=bb0) {\n\
///      bb0:\n  join b0\n  jmp bb1\n\
///      bb1:\n  wait b0\n  jmp bb2\n\
///      bb2:\n  join b1\n  jmp bb3\n\
///      bb3:\n  wait b1\n  exit\n}\n",
/// ).unwrap();
/// let mut f = m.functions.iter().next().unwrap().1.clone();
/// let report = allocate_barriers(&mut f, &mut FunctionAnalyses::default(), Some(16)).unwrap();
/// assert_eq!(report.after, 1);
/// ```
pub fn allocate_barriers(
    func: &mut Function,
    fa: &mut FunctionAnalyses,
    limit: Option<usize>,
) -> Result<BarrierAllocReport, PassError> {
    let nb = func.num_barriers;
    if nb == 0 {
        return Ok(BarrierAllocReport { before: 0, after: 0, mapping: Vec::new() });
    }

    // Instruction-level interference from the cancel-insensitive live
    // ranges (see `alloc_range_step` for why `cancel` must not end a
    // range under divergence).
    let mut interferes = vec![vec![false; nb]; nb];
    mark_interference(func, fa, nb, &mut interferes);
    let mut used = vec![false; nb];
    mark_used(func, &mut used);

    let (mapping, after) = color(&interferes, &used);
    if let Some(max) = limit {
        if after > max {
            return Err(PassError::Module(format!(
                "@{}: needs {after} barrier registers, hardware provides {max}",
                func.name
            )));
        }
    }
    rewrite_function(func, &mapping, after);
    Ok(BarrierAllocReport { before: nb, after, mapping })
}

/// Marks the barriers `func` ever populates (join, rejoin, copy
/// destination).
fn mark_used(func: &Function, used: &mut [bool]) {
    for (_, block) in func.blocks.iter() {
        for inst in &block.insts {
            match inst {
                Inst::Barrier(BarrierOp::Join(b)) | Inst::Barrier(BarrierOp::Rejoin(b)) => {
                    used[b.index()] = true;
                }
                Inst::Barrier(BarrierOp::Copy { dst, .. }) => used[dst.index()] = true,
                _ => {}
            }
        }
    }
}

/// Greedy coloring in id order (insertion order ≈ region nesting, which
/// colors well in practice); unpopulated barriers get fresh colors after
/// the used ones. Returns `mapping[old] = new` and the color count.
fn color(interferes: &[Vec<bool>], used: &[bool]) -> (Vec<BarrierId>, usize) {
    let nb = used.len();
    let mut color: Vec<Option<usize>> = vec![None; nb];
    let mut next_free = 0usize;
    for b in (0..nb).filter(|&b| used[b]) {
        let mut taken = vec![false; nb];
        for (other, row) in interferes[b].iter().enumerate() {
            if *row {
                if let Some(c) = color[other] {
                    taken[c] = true;
                }
            }
        }
        let c = (0..nb).find(|&c| !taken[c]).expect("nb colors always suffice");
        color[b] = Some(c);
        next_free = next_free.max(c + 1);
    }
    for c in color.iter_mut().filter(|c| c.is_none()) {
        *c = Some(next_free);
        next_free += 1;
    }
    (color.into_iter().map(|c| BarrierId::new(c.expect("colored"))).collect(), next_free)
}

/// Rewrites one function's barrier operands through a mapping.
fn rewrite_function(func: &mut Function, mapping: &[BarrierId], after: usize) {
    for (_, block) in func.blocks.iter_mut() {
        for inst in &mut block.insts {
            if let Inst::Barrier(op) = inst {
                *op = match *op {
                    BarrierOp::Join(b) => BarrierOp::Join(mapping[b.index()]),
                    BarrierOp::Wait(b) => BarrierOp::Wait(mapping[b.index()]),
                    BarrierOp::Cancel(b) => BarrierOp::Cancel(mapping[b.index()]),
                    BarrierOp::Rejoin(b) => BarrierOp::Rejoin(mapping[b.index()]),
                    BarrierOp::Copy { dst, src } => {
                        BarrierOp::Copy { dst: mapping[dst.index()], src: mapping[src.index()] }
                    }
                    BarrierOp::ArrivedCount { dst, bar } => {
                        BarrierOp::ArrivedCount { dst, bar: mapping[bar.index()] }
                    }
                };
            }
        }
    }
    if func.num_barriers > 0 {
        func.num_barriers = after;
    }
}

/// Module-wide barrier register allocation.
///
/// Barrier ids name *warp-global* registers, so a barrier joined in a
/// kernel and waited on inside a device function (§4.4) must be renamed
/// consistently everywhere. This routine builds one interference relation
/// over the shared id space — per-function joined overlaps, plus a
/// conservative rule that any barrier touched by a device function
/// interferes with every other used barrier (cross-frame liveness is not
/// tracked) — colors once, and rewrites every function.
///
/// # Errors
///
/// Returns [`PassError::Module`] if the colored register count exceeds
/// `limit`.
pub fn allocate_barriers_module(
    module: &mut Module,
    limit: Option<usize>,
) -> Result<BarrierAllocReport, PassError> {
    let views = &mut vec![FunctionAnalyses::default(); module.functions.len()];
    allocate_module(module, views, limit)
}

/// [`allocate_barriers_module`], reading the caller's analyses (indexed
/// like `module.functions`).
pub(crate) fn allocate_module(
    module: &mut Module,
    views: &mut [FunctionAnalyses],
    limit: Option<usize>,
) -> Result<BarrierAllocReport, PassError> {
    let nb = module.functions.iter().map(|(_, f)| f.num_barriers).max().unwrap_or(0);
    if nb == 0 {
        return Ok(BarrierAllocReport { before: 0, after: 0, mapping: Vec::new() });
    }

    let mut interferes = vec![vec![false; nb]; nb];
    let mut used = vec![false; nb];
    let mut device_touched: Vec<usize> = Vec::new();

    for (fid, func) in module.functions.iter() {
        if func.num_barriers == 0 {
            continue;
        }
        mark_interference(func, &mut views[fid.index()], nb, &mut interferes);
        mark_used(func, &mut used);
        if func.kind == FuncKind::Device {
            for (_, block) in func.blocks.iter() {
                for inst in &block.insts {
                    if let Inst::Barrier(op) = *inst {
                        device_touched.extend(registers(op).map(BarrierId::index));
                    }
                }
            }
        }
    }

    // Conservative cross-frame rule.
    #[allow(clippy::needless_range_loop)] // symmetric matrix update
    for &d in &device_touched {
        for other in 0..nb {
            if other != d {
                interferes[d][other] = true;
                interferes[other][d] = true;
            }
        }
        used[d] = true;
    }

    let (mapping, after) = color(&interferes, &used);
    if let Some(max) = limit {
        if after > max {
            return Err(PassError::Module(format!(
                "module needs {after} barrier registers, hardware provides {max}"
            )));
        }
    }
    for (_, func) in module.functions.iter_mut() {
        rewrite_function(func, &mapping, after);
    }
    Ok(BarrierAllocReport { before: nb, after, mapping })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};
    use simt_ir::{parse_module, Module, Value};
    use simt_sim::{run, Launch, SimConfig};

    /// Two disjoint barriered regions: their registers can share colors.
    const DISJOINT: &str = r#"
kernel @k(params=0, regs=4, barriers=4, entry=bb0) {
bb0:
  join b0
  join b1
  jmp bb1
bb1:
  wait b0
  wait b1
  jmp bb2
bb2:
  join b2
  join b3
  jmp bb3
bb3:
  wait b2
  wait b3
  exit
}
"#;

    #[test]
    fn disjoint_regions_share_registers() {
        let m = parse_module(DISJOINT).unwrap();
        let mut f = m.functions.iter().next().unwrap().1.clone();
        let report = allocate_barriers(&mut f, &mut FunctionAnalyses::default(), None).unwrap();
        assert_eq!(report.before, 4);
        assert_eq!(report.after, 2, "two live at a time");
        assert_eq!(f.num_barriers, 2);

        // Still verifies and runs identically.
        let mut m2 = Module::new();
        m2.add_function(f);
        simt_ir::assert_verified(&m2);
        let out = run(&m2, &SimConfig::default(), &Launch::new("k", 1)).unwrap();
        assert!(out.metrics.issues > 0);
    }

    #[test]
    fn overlapping_regions_keep_distinct_registers() {
        let src = "kernel @k(params=0, regs=1, barriers=2, entry=bb0) {\n\
             bb0:\n  join b0\n  join b1\n  jmp bb1\n\
             bb1:\n  wait b1\n  jmp bb2\n\
             bb2:\n  wait b0\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let mut f = m.functions.iter().next().unwrap().1.clone();
        let report = allocate_barriers(&mut f, &mut FunctionAnalyses::default(), None).unwrap();
        assert_eq!(report.after, 2, "nested live ranges cannot share");
    }

    #[test]
    fn limit_violation_is_reported() {
        let src = "kernel @k(params=0, regs=1, barriers=2, entry=bb0) {\n\
             bb0:\n  join b0\n  join b1\n  jmp bb1\n\
             bb1:\n  wait b1\n  jmp bb2\n\
             bb2:\n  wait b0\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let mut f = m.functions.iter().next().unwrap().1.clone();
        let err = allocate_barriers(&mut f, &mut FunctionAnalyses::default(), Some(1)).unwrap_err();
        assert!(matches!(err, PassError::Module(msg) if msg.contains("hardware provides 1")));
    }

    #[test]
    fn allocation_preserves_kernel_results() {
        // Full pipeline on Listing 1, then allocate, then compare runs.
        let src = r#"
kernel @k(params=0, regs=6, barriers=0, entry=bb0) {
  predict bb0 -> label L1
bb0:
  %r0 = special.tid
  %r2 = mov 0
  %r5 = mov 0
  jmp bb1
bb1:
  %r1 = rng.unit
  %r3 = lt %r1, 0.25f
  brdiv %r3, bb2, bb3
bb2 (label=L1):
  work 50
  %r5 = add %r5, 1
  jmp bb3
bb3:
  %r2 = add %r2, 1
  %r3 = lt %r2, 16
  brdiv %r3, bb1, bb4
bb4:
  store global[%r0], %r5
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let compiled = compile(&m, &CompileOptions::speculative()).unwrap();
        let mut allocated = compiled.module.clone();
        let kernel = allocated.function_by_name("k").unwrap();
        let report = allocate_barriers(
            &mut allocated.functions[kernel],
            &mut FunctionAnalyses::default(),
            Some(16),
        )
        .unwrap();
        assert!(report.after <= report.before);
        simt_ir::assert_verified(&allocated);

        let mut launch = Launch::new("k", 2);
        launch.global_mem = vec![Value::I64(0); 64];
        let cfg = SimConfig::default();
        let a = run(&compiled.module, &cfg, &launch).unwrap();
        let b = run(&allocated, &cfg, &launch).unwrap();
        assert_eq!(a.global_mem, b.global_mem, "allocation must not change results");
        assert_eq!(a.metrics.cycles, b.metrics.cycles);
    }

    #[test]
    fn unpopulated_barriers_survive() {
        // A wait on a never-populated barrier is a verifier error, but the
        // allocator itself must not lose the reference.
        let src = "kernel @k(params=0, regs=1, barriers=2, entry=bb0) {\n\
             bb0:\n  join b0\n  wait b0\n  cancel b1\n  exit\n}\n";
        let m = parse_module(src).unwrap();
        let mut f = m.functions.iter().next().unwrap().1.clone();
        let report = allocate_barriers(&mut f, &mut FunctionAnalyses::default(), None).unwrap();
        assert_eq!(report.after, 2);
    }
}
