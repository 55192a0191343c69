//! Decode: lowers a verified [`Module`] once into a flat execution image.
//!
//! The tree-walking interpreter pays for the IR's nested shape on every
//! issue slot: two `IdVec` lookups to reach a block, a bounds check to
//! distinguish instructions from the terminator, and a heap `clone` of the
//! instruction (whose `Call` variant owns `Vec`s). Decoding flattens all of
//! that out of the hot loop:
//!
//! - every instruction *and terminator* of every function becomes one
//!   [`DecodedInst`] in a single dense array indexed by a flat program
//!   counter (`pc`);
//! - functions are laid out in [`FuncId`] order, blocks in [`BlockId`]
//!   order, each block's terminator directly after its instructions —
//!   which makes flat-`pc` order identical to the `(func, block, inst)`
//!   lexicographic order the warp scheduler sorts by, so every scheduling
//!   policy makes exactly the same choices on the decoded image;
//! - branch targets, call entry points, and callee frame sizes are
//!   pre-resolved to flat PCs;
//! - the variable-length operand lists of `call` and `ret` live in shared
//!   side pools addressed by [`PoolRange`], so [`DecodedInst`] is `Copy`
//!   and an issue slot never allocates;
//! - each pc carries a [`CostClass`] rather than a resolved cycle count,
//!   keeping the image independent of the [`SimConfig`](crate::SimConfig)
//!   it later runs under — [`DecodedImage::resolve_costs`] bakes a
//!   [`LatencyModel`] into a flat `Vec<u32>` per run;
//! - the image keeps every block's entry pc (its block graph), from which
//!   [`DecodedImage::reconvergence_pc`] derives the IPDOM stack's
//!   reconvergence table with the compiler's `DomTree` on its first
//!   query — once per image, not per launch, and never in `decode`,
//!   which compile-only callers time.
//!
//! Decoding cannot fail: the one module-level error the interpreter can
//! hit mid-run (a call left unresolved by name) is preserved as a
//! [`DecodedInst::UnresolvedCall`] poison instruction that reproduces the
//! original runtime error if executed.

use crate::config::LatencyModel;
use crate::error::ThreadLocation;
use simt_ir::{
    BarrierOp, BinOp, BlockId, FuncId, FuncRef, Inst, MemSpace, Module, Operand, Reg, RngKind,
    SpecialValue, Terminator, UnOp,
};
use std::sync::OnceLock;

/// A span in one of the image's side pools ([`DecodedImage::operand_pool`]
/// or [`DecodedImage::reg_pool`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PoolRange {
    start: u32,
    len: u32,
}

impl PoolRange {
    pub(crate) const EMPTY: PoolRange = PoolRange { start: 0, len: 0 };

    fn as_range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Where a flat pc came from in the structured IR. Used for error
/// locations, the per-block profile, and trace events, and as the
/// tree-walker's pc-group key: the field order makes it sort like the
/// `(func, block, inst)` triple, which is flat-pc order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PcOrigin {
    /// Function containing this pc.
    pub func: FuncId,
    /// Block containing this pc.
    pub block: BlockId,
    /// Instruction index within the block; the terminator sits at
    /// `insts.len()`, matching the tree-walker's convention.
    pub inst: u32,
}

/// Config-independent issue-cost category of one pc.
///
/// The image stores classes instead of cycle counts so one decode serves
/// every [`LatencyModel`]; see [`DecodedImage::resolve_costs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CostClass {
    /// Simple ALU ops, moves, selects, specials, votes.
    Alu,
    /// Integer multiply/divide/remainder.
    MulDiv,
    /// Transcendentals (sqrt/exp/log).
    Sfu,
    /// RNG advance or reseed.
    Rng,
    /// Global memory access base cost (the machine adds the
    /// address-dependent coalescing component).
    MemGlobal,
    /// Local memory access.
    MemLocal,
    /// Atomic read-modify-write.
    Atomic,
    /// Barrier bookkeeping and `__syncthreads`.
    Barrier,
    /// Control flow: every terminator, at the tree-walker's flat
    /// `latency.control` rate.
    Control,
    /// Call overhead.
    Call,
    /// A fixed cycle count known at decode time (`work`/`nop`).
    Fixed(u32),
}

/// One decoded instruction or terminator. `Copy`, pointer-free, and
/// branch-resolved: executing it never touches the source [`Module`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum DecodedInst {
    /// Binary ALU operation.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Unary ALU operation.
    Un {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Register move / immediate materialization.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Select without divergence.
    Sel {
        /// Destination register.
        dst: Reg,
        /// Condition operand.
        cond: Operand,
        /// Value when truthy.
        if_true: Operand,
        /// Value when falsy.
        if_false: Operand,
    },
    /// Memory load.
    Load {
        /// Destination register.
        dst: Reg,
        /// Memory space.
        space: MemSpace,
        /// Cell address.
        addr: Operand,
    },
    /// Memory store.
    Store {
        /// Memory space.
        space: MemSpace,
        /// Cell address.
        addr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// Atomic fetch-add on global memory.
    AtomicAdd {
        /// Receives the pre-add value.
        dst: Reg,
        /// Cell address.
        addr: Operand,
        /// Addend.
        value: Operand,
    },
    /// Read a special value.
    Special {
        /// Destination register.
        dst: Reg,
        /// Which special value.
        kind: SpecialValue,
    },
    /// Advance the per-thread RNG.
    Rng {
        /// Destination register.
        dst: Reg,
        /// Sample kind.
        kind: RngKind,
    },
    /// Re-seed the per-thread RNG.
    SeedRng {
        /// Seed source.
        src: Operand,
    },
    /// `__syncthreads`.
    SyncThreads,
    /// Warp-synchronous vote.
    Vote {
        /// Destination register (receives the count).
        dst: Reg,
        /// Per-lane predicate.
        pred: Operand,
    },
    /// Resolved device-function call: the callee's entry pc and frame size
    /// are baked in.
    Call {
        /// Flat pc of the callee's entry block.
        entry_pc: u32,
        /// Callee register-file size.
        num_regs: u32,
        /// Argument operands in [`DecodedImage::operand_pool`].
        args: PoolRange,
        /// Return-value registers in [`DecodedImage::reg_pool`].
        rets: PoolRange,
    },
    /// Poison: a by-name call the linker never resolved. Executing it
    /// reproduces the tree-walker's `UnresolvedCall` error.
    UnresolvedCall {
        /// Index into [`DecodedImage::callee_names`].
        name: u32,
    },
    /// Convergence-barrier operation.
    Barrier(BarrierOp),
    /// `work` / `nop`: advance every lane; the cost table carries the
    /// cycle count.
    Skip,
    /// Unconditional jump (terminator).
    Jump {
        /// Flat pc of the target block.
        target: u32,
    },
    /// Conditional branch (terminator).
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Flat pc when the condition is truthy.
        then_pc: u32,
        /// Flat pc when the condition is falsy.
        else_pc: u32,
    },
    /// Return from a device function (terminator).
    Return {
        /// Returned operands in [`DecodedImage::operand_pool`].
        values: PoolRange,
    },
    /// Thread exit (terminator).
    Exit,
}

/// Per-function facts the machine needs at launch and call time.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DecodedFunc {
    /// Flat pc of the entry block.
    pub entry_pc: u32,
    /// Register-file size.
    pub num_regs: u32,
    /// Number of parameter registers.
    pub num_params: u32,
}

/// A [`Module`] lowered to a flat, dense-pc instruction stream.
///
/// Build one with [`DecodedImage::decode`] and execute it with
/// [`run_image`](crate::exec::run_image) (a one-slot cohort of
/// [`crate::sweep`]). The image borrows nothing: it can
/// be cached and shared across any number of runs and threads (it is `Send`
/// and `Sync`), which is what the batch evaluation engine in the
/// `workloads` crate does.
#[derive(Clone, Debug)]
pub struct DecodedImage {
    /// The flat instruction stream, indexed by pc.
    pub(crate) insts: Vec<DecodedInst>,
    /// Structured-IR origin of each pc (parallel to `insts`).
    pub(crate) origin: Vec<PcOrigin>,
    /// Whether each pc lies in a region-of-interest block.
    pub(crate) roi: Vec<bool>,
    /// Issue-cost class of each pc.
    pub(crate) cost: Vec<CostClass>,
    /// Per-function launch/call facts, indexed by [`FuncId`].
    pub(crate) funcs: Vec<DecodedFunc>,
    /// Function names, indexed by [`FuncId`] (kernel lookup, error text).
    pub(crate) func_names: Vec<String>,
    /// Shared pool backing [`PoolRange`] operand lists.
    pub(crate) operand_pool: Vec<Operand>,
    /// Shared pool backing [`PoolRange`] register lists.
    pub(crate) reg_pool: Vec<Reg>,
    /// Names referenced by [`DecodedInst::UnresolvedCall`] poisons.
    pub(crate) callee_names: Vec<String>,
    /// Barrier registers per warp: the module-wide maximum, at least 1.
    pub(crate) num_barriers: usize,
    /// Entry pc of every block, indexed by [`FuncId`] then [`BlockId`]:
    /// the image's block graph.
    pub(crate) block_starts: Vec<Vec<u32>>,
    /// The IPDOM stack's branch-pc → reconvergence-pc table
    /// ([`recon::ipdom_table`](crate::recon::ipdom_table)), built on the
    /// first [`DecodedImage::reconvergence_pc`] query and kept.
    ipdom: OnceLock<Vec<u32>>,
}

impl DecodedImage {
    /// Lowers `module` into a flat execution image.
    pub fn decode(module: &Module) -> DecodedImage {
        // Pass 1: lay out functions in id order, blocks in id order, the
        // terminator after each block's instructions, and record every
        // block's starting pc.
        let mut block_starts: Vec<Vec<u32>> = Vec::with_capacity(module.functions.len());
        let mut pc = 0u32;
        for (_, f) in module.functions.iter() {
            let mut starts = Vec::with_capacity(f.blocks.len());
            for (_, b) in f.blocks.iter() {
                starts.push(pc);
                pc += b.insts.len() as u32 + 1;
            }
            block_starts.push(starts);
        }

        let total = pc as usize;
        let mut image = DecodedImage {
            insts: Vec::with_capacity(total),
            origin: Vec::with_capacity(total),
            roi: Vec::with_capacity(total),
            cost: Vec::with_capacity(total),
            funcs: Vec::with_capacity(module.functions.len()),
            func_names: Vec::with_capacity(module.functions.len()),
            operand_pool: Vec::new(),
            reg_pool: Vec::new(),
            callee_names: Vec::new(),
            num_barriers: module
                .functions
                .iter()
                .map(|(_, f)| f.num_barriers)
                .max()
                .unwrap_or(0)
                .max(1),
            block_starts: Vec::new(),
            ipdom: OnceLock::new(),
        };

        // Pass 2: emit, resolving targets through the layout.
        for (fid, f) in module.functions.iter() {
            image.funcs.push(DecodedFunc {
                entry_pc: block_starts[fid.index()][f.entry.index()],
                num_regs: f.num_regs as u32,
                num_params: f.num_params as u32,
            });
            image.func_names.push(f.name.clone());
            for (bid, b) in f.blocks.iter() {
                for (i, inst) in b.insts.iter().enumerate() {
                    image.emit(fid, bid, i as u32, b.roi, module, &block_starts, inst);
                }
                image.emit_term(fid, bid, b.insts.len() as u32, b.roi, &block_starts, &b.term);
            }
        }
        debug_assert_eq!(image.insts.len(), total);
        image.block_starts = block_starts;
        image
    }

    fn push(
        &mut self,
        fid: FuncId,
        bid: BlockId,
        idx: u32,
        roi: bool,
        c: CostClass,
        d: DecodedInst,
    ) {
        self.insts.push(d);
        self.origin.push(PcOrigin { func: fid, block: bid, inst: idx });
        self.roi.push(roi);
        self.cost.push(c);
    }

    fn pool_operands(&mut self, ops: &[Operand]) -> PoolRange {
        if ops.is_empty() {
            return PoolRange::EMPTY;
        }
        let start = self.operand_pool.len() as u32;
        self.operand_pool.extend_from_slice(ops);
        PoolRange { start, len: ops.len() as u32 }
    }

    fn pool_regs(&mut self, regs: &[Reg]) -> PoolRange {
        if regs.is_empty() {
            return PoolRange::EMPTY;
        }
        let start = self.reg_pool.len() as u32;
        self.reg_pool.extend_from_slice(regs);
        PoolRange { start, len: regs.len() as u32 }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        fid: FuncId,
        bid: BlockId,
        idx: u32,
        roi: bool,
        module: &Module,
        block_start: &[Vec<u32>],
        inst: &Inst,
    ) {
        let (c, d) = match inst {
            Inst::Bin { op, dst, lhs, rhs } => {
                let c = match op {
                    BinOp::Mul | BinOp::Div | BinOp::Rem => CostClass::MulDiv,
                    _ => CostClass::Alu,
                };
                (c, DecodedInst::Bin { op: *op, dst: *dst, lhs: *lhs, rhs: *rhs })
            }
            Inst::Un { op, dst, src } => {
                let c = match op {
                    UnOp::Sqrt | UnOp::Exp | UnOp::Log => CostClass::Sfu,
                    _ => CostClass::Alu,
                };
                (c, DecodedInst::Un { op: *op, dst: *dst, src: *src })
            }
            Inst::Mov { dst, src } => (CostClass::Alu, DecodedInst::Mov { dst: *dst, src: *src }),
            Inst::Sel { dst, cond, if_true, if_false } => (
                CostClass::Alu,
                DecodedInst::Sel { dst: *dst, cond: *cond, if_true: *if_true, if_false: *if_false },
            ),
            Inst::Load { dst, space, addr } => {
                let c = match space {
                    MemSpace::Global => CostClass::MemGlobal,
                    MemSpace::Local => CostClass::MemLocal,
                };
                (c, DecodedInst::Load { dst: *dst, space: *space, addr: *addr })
            }
            Inst::Store { space, addr, value } => {
                let c = match space {
                    MemSpace::Global => CostClass::MemGlobal,
                    MemSpace::Local => CostClass::MemLocal,
                };
                (c, DecodedInst::Store { space: *space, addr: *addr, value: *value })
            }
            Inst::AtomicAdd { dst, addr, value } => (
                CostClass::Atomic,
                DecodedInst::AtomicAdd { dst: *dst, addr: *addr, value: *value },
            ),
            Inst::Special { dst, kind } => {
                (CostClass::Alu, DecodedInst::Special { dst: *dst, kind: *kind })
            }
            Inst::Rng { dst, kind } => {
                (CostClass::Rng, DecodedInst::Rng { dst: *dst, kind: *kind })
            }
            Inst::SeedRng { src } => (CostClass::Rng, DecodedInst::SeedRng { src: *src }),
            Inst::SyncThreads => (CostClass::Barrier, DecodedInst::SyncThreads),
            Inst::Vote { dst, pred } => {
                (CostClass::Alu, DecodedInst::Vote { dst: *dst, pred: *pred })
            }
            Inst::Call { func, args, rets } => {
                let args = self.pool_operands(args);
                let rets = self.pool_regs(rets);
                match func {
                    FuncRef::Id(id) => {
                        let callee = &module.functions[*id];
                        (
                            CostClass::Call,
                            DecodedInst::Call {
                                entry_pc: block_start[id.index()][callee.entry.index()],
                                num_regs: callee.num_regs as u32,
                                args,
                                rets,
                            },
                        )
                    }
                    FuncRef::Name(n) => {
                        // Interned: repeated unresolved references to the
                        // same callee share one pool entry, and the
                        // executor reports errors by index — the string
                        // is cloned here at decode time, never per issue.
                        let name = match self.callee_names.iter().position(|e| e == n) {
                            Some(i) => i as u32,
                            None => {
                                self.callee_names.push(n.clone());
                                (self.callee_names.len() - 1) as u32
                            }
                        };
                        (CostClass::Call, DecodedInst::UnresolvedCall { name })
                    }
                }
            }
            Inst::Barrier(op) => (CostClass::Barrier, DecodedInst::Barrier(*op)),
            Inst::Work { amount } => (CostClass::Fixed((*amount).max(1)), DecodedInst::Skip),
            Inst::Nop => (CostClass::Fixed(1), DecodedInst::Skip),
        };
        self.push(fid, bid, idx, roi, c, d);
    }

    fn emit_term(
        &mut self,
        fid: FuncId,
        bid: BlockId,
        idx: u32,
        roi: bool,
        block_start: &[Vec<u32>],
        term: &Terminator,
    ) {
        let target = |b: BlockId| block_start[fid.index()][b.index()];
        let d = match term {
            Terminator::Jump(b) => DecodedInst::Jump { target: target(*b) },
            Terminator::Branch { cond, then_bb, else_bb, .. } => DecodedInst::Branch {
                cond: *cond,
                then_pc: target(*then_bb),
                else_pc: target(*else_bb),
            },
            Terminator::Return(values) => {
                DecodedInst::Return { values: self.pool_operands(values) }
            }
            Terminator::Exit => DecodedInst::Exit,
        };
        self.push(fid, bid, idx, roi, CostClass::Control, d);
    }

    /// Bakes a latency model into a per-pc cycle-cost table.
    pub fn resolve_costs(&self, lat: &LatencyModel) -> Vec<u32> {
        self.cost
            .iter()
            .map(|c| match *c {
                CostClass::Alu => lat.alu,
                CostClass::MulDiv => lat.mul_div,
                CostClass::Sfu => lat.sfu,
                CostClass::Rng => lat.rng,
                CostClass::MemGlobal => lat.mem_base,
                CostClass::MemLocal => lat.mem_local,
                CostClass::Atomic => lat.atomic,
                CostClass::Barrier => lat.barrier,
                CostClass::Control => lat.control,
                CostClass::Call => lat.call,
                CostClass::Fixed(n) => n,
            })
            .collect()
    }

    /// Looks up a function id by name (kernel resolution at launch).
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_names.iter().position(|n| n == name).map(FuncId::new)
    }

    /// Where the arms of the conditional branch at `pc` reconverge under
    /// the IPDOM stack: the entry pc of its block's immediate
    /// post-dominator. `None` when the arms meet only at function exit,
    /// when the block cannot reach an exit, or when `pc` holds no branch.
    /// The first query builds the table for the whole image.
    pub fn reconvergence_pc(&self, pc: usize) -> Option<usize> {
        let rpc = self.ipdom.get_or_init(|| crate::recon::ipdom_table(self))[pc];
        (rpc != crate::recon::NO_RPC).then_some(rpc as usize)
    }

    /// Number of decoded pcs (instructions plus terminators).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the image contains no instructions (empty module).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Where `lane` of `warp` stands when its pc is `pc`. Faults name
    /// the *issued* pc: the cohort's shared pc array may already have
    /// advanced past a faulting lane for the surviving slots.
    pub(crate) fn location(&self, warp: usize, lane: usize, pc: usize) -> ThreadLocation {
        let o = self.origin[pc];
        ThreadLocation { warp, lane, func: o.func, block: o.block, inst: o.inst as usize }
    }

    pub(crate) fn operands(&self, r: PoolRange) -> &[Operand] {
        &self.operand_pool[r.as_range()]
    }

    pub(crate) fn regs(&self, r: PoolRange) -> &[Reg] {
        &self.reg_pool[r.as_range()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_and_link;

    #[test]
    fn layout_is_dense_and_lexicographic() {
        let m = parse_and_link(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  br %r0, bb1, bb2\n\
             bb1:\n  %r1 = mul %r0, 2\n  jmp bb2\n\
             bb2:\n  exit\n}\n",
        )
        .unwrap();
        let img = DecodedImage::decode(&m);
        // bb0: tid, br | bb1: mul, jmp | bb2: exit → 5 pcs.
        assert_eq!(img.len(), 5);
        // Origins follow (block, inst) lexicographic order exactly.
        let origins: Vec<(u32, u32)> = img.origin.iter().map(|o| (o.block.0, o.inst)).collect();
        assert_eq!(origins, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]);
        // The branch resolves to the blocks' start pcs.
        match img.insts[1] {
            DecodedInst::Branch { then_pc, else_pc, .. } => {
                assert_eq!((then_pc, else_pc), (2, 4));
            }
            ref other => panic!("expected branch, got {other:?}"),
        }
        assert_eq!(img.func_by_name("k"), Some(FuncId(0)));
        assert_eq!(img.func_by_name("nope"), None);
    }

    #[test]
    fn cost_classes_resolve_like_issue_cost() {
        let m = parse_and_link(
            "kernel @k(params=0, regs=2, barriers=1, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  %r1 = mul %r0, 3\n  %r1 = sqrt %r1\n  \
             %r0 = rng.u63\n  store global[0], %r1\n  work 7\n  nop\n  join b0\n  exit\n}\n",
        )
        .unwrap();
        let img = DecodedImage::decode(&m);
        let lat = LatencyModel::default();
        let costs = img.resolve_costs(&lat);
        let expected = [
            lat.alu,      // special.tid
            lat.mul_div,  // mul
            lat.sfu,      // sqrt
            lat.rng,      // rng.u63
            lat.mem_base, // store global
            7,            // work 7
            1,            // nop
            lat.barrier,  // join
            lat.control,  // exit (terminator)
        ];
        assert_eq!(costs, expected);
    }

    #[test]
    fn unresolved_callee_names_are_interned() {
        // Unlinked on purpose: only `parse_module` leaves by-name calls
        // unresolved for decode to poison.
        let m = simt_ir::parse_module(
            "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\n\
             bb0:\n  call @ghost(1) -> (%r0)\n  call @ghost(2) -> (%r0)\n  \
             call @phantom(3) -> (%r1)\n  exit\n}\n",
        )
        .unwrap();
        let img = DecodedImage::decode(&m);
        assert_eq!(img.callee_names, vec!["ghost".to_string(), "phantom".to_string()]);
        let ids: Vec<u32> = img
            .insts
            .iter()
            .filter_map(|i| match i {
                DecodedInst::UnresolvedCall { name } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![0, 0, 1]);
    }

    #[test]
    fn call_resolves_entry_and_pools_args() {
        let m = parse_and_link(
            "kernel @k(params=0, regs=3, barriers=0, entry=bb0) {\n\
             bb0:\n  %r0 = special.tid\n  call @f(%r0, 5) -> (%r1, %r2)\n  exit\n}\n\
             device @f(params=2, regs=4, barriers=0, entry=bb0) {\n\
             bb0:\n  %r2 = add %r0, %r1\n  ret %r2, %r0\n}\n",
        )
        .unwrap();
        let img = DecodedImage::decode(&m);
        match img.insts[1] {
            DecodedInst::Call { entry_pc, num_regs, args, rets } => {
                // @f starts right after @k's three pcs.
                assert_eq!(entry_pc, 3);
                assert_eq!(num_regs, 4);
                assert_eq!(img.operands(args).len(), 2);
                assert_eq!(img.regs(rets), &[Reg(1), Reg(2)]);
            }
            ref other => panic!("expected call, got {other:?}"),
        }
    }
}
