//! Instruction set of the kernel IR.
//!
//! The instruction set is deliberately small — just enough to express the
//! divergent Monte-Carlo-style kernels the paper evaluates — but it includes
//! first-class *convergence barrier* operations ([`BarrierOp`]) modelling
//! Volta's `BSSY` / `BSYNC` / `BREAK` instructions (Table 1 of the paper),
//! which is what the Speculative Reconvergence passes manipulate.

use crate::ids::{BarrierId, BlockId, FuncId, Reg};
use crate::value::Value;
use std::fmt;

/// An instruction operand: either a register or an immediate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Read a per-thread virtual register.
    Reg(Reg),
    /// An immediate value, identical across all threads.
    Imm(Value),
}

impl Operand {
    /// Convenience constructor for an integer immediate.
    pub fn imm_i64(v: i64) -> Operand {
        Operand::Imm(Value::I64(v))
    }

    /// Convenience constructor for a float immediate.
    pub fn imm_f64(v: f64) -> Operand {
        Operand::Imm(Value::F64(v))
    }

    /// Returns the register if this operand reads one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::imm_i64(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::imm_f64(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(Value::I64(v)) => write!(f, "{v}"),
            Operand::Imm(Value::F64(v)) => write!(f, "{v:?}f"),
        }
    }
}

/// Binary ALU operations.
///
/// Operations are polymorphic over [`Value`]: integer inputs use wrapping
/// integer semantics, and if either input is a float the operation is
/// performed in `f64`. Relational ops always produce an integer 0/1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division. Integer division by zero is a simulator fault.
    Div,
    /// Remainder. Integer remainder by zero is a simulator fault.
    Rem,
    /// Bitwise and (integer only).
    And,
    /// Bitwise or (integer only).
    Or,
    /// Bitwise xor (integer only).
    Xor,
    /// Left shift (integer only, modulo 64).
    Shl,
    /// Logical right shift (integer only, modulo 64).
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Equality comparison, producing 0/1.
    Eq,
    /// Inequality comparison, producing 0/1.
    Ne,
    /// Less-than comparison, producing 0/1.
    Lt,
    /// Less-or-equal comparison, producing 0/1.
    Le,
    /// Greater-than comparison, producing 0/1.
    Gt,
    /// Greater-or-equal comparison, producing 0/1.
    Ge,
}

impl BinOp {
    /// The mnemonic used in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::Lt => "lt",
            BinOp::Le => "le",
            BinOp::Gt => "gt",
            BinOp::Ge => "ge",
        }
    }

    /// All binary ops, in mnemonic order (useful for parsing and fuzzing).
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Min,
            BinOp::Max,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ]
    }
}

/// Unary ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise not (integer only).
    Not,
    /// Arithmetic negation.
    Neg,
    /// Square root (float).
    Sqrt,
    /// Natural exponential (float).
    Exp,
    /// Natural logarithm (float).
    Log,
    /// Absolute value.
    Abs,
    /// Convert integer to float.
    ItoF,
    /// Convert float to integer (truncating).
    FtoI,
}

impl UnOp {
    /// The mnemonic used in the textual IR.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
            UnOp::Sqrt => "sqrt",
            UnOp::Exp => "exp",
            UnOp::Log => "log",
            UnOp::Abs => "abs",
            UnOp::ItoF => "itof",
            UnOp::FtoI => "ftoi",
        }
    }

    /// All unary ops, in mnemonic order.
    pub fn all() -> &'static [UnOp] {
        &[UnOp::Not, UnOp::Neg, UnOp::Sqrt, UnOp::Exp, UnOp::Log, UnOp::Abs, UnOp::ItoF, UnOp::FtoI]
    }
}

/// Thread- or launch-varying special values readable by [`Inst::Special`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpecialValue {
    /// Global thread id across the launch.
    Tid,
    /// Lane index within the warp (0..warp_width).
    LaneId,
    /// Warp index within the launch.
    WarpId,
    /// Number of threads in the launch.
    NumThreads,
    /// Warp width (number of lanes per warp).
    WarpWidth,
}

impl SpecialValue {
    /// The mnemonic used in the textual IR (after the `special.` prefix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            SpecialValue::Tid => "tid",
            SpecialValue::LaneId => "lane",
            SpecialValue::WarpId => "warp",
            SpecialValue::NumThreads => "nthreads",
            SpecialValue::WarpWidth => "warpwidth",
        }
    }
}

/// Kinds of values produced by the per-thread RNG intrinsic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RngKind {
    /// A uniformly distributed non-negative 63-bit integer.
    U63,
    /// A uniform float in `[0, 1)`.
    Unit,
}

impl RngKind {
    /// The mnemonic used in the textual IR (after the `rng.` prefix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            RngKind::U63 => "u63",
            RngKind::Unit => "unit",
        }
    }
}

/// Memory spaces addressable by loads and stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Launch-wide memory shared by all threads; subject to the coalescing
    /// cost model.
    Global,
    /// Per-thread scratch memory; always "coalesced" (constant cost).
    Local,
}

impl MemSpace {
    /// The keyword used in the textual IR.
    pub fn keyword(self) -> &'static str {
        match self {
            MemSpace::Global => "global",
            MemSpace::Local => "local",
        }
    }
}

/// Convergence-barrier operations (Table 1 of the paper).
///
/// Barrier registers hold per-warp participation *masks*. These four
/// primitives plus the two mask-manipulation helpers are sufficient to
/// express PDOM reconvergence, Speculative Reconvergence, deconfliction and
/// the soft-barrier lowering of Figure 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BarrierOp {
    /// `JoinBarrier<b>`: the issuing thread adds itself to the barrier's
    /// participation mask (Volta `BSSY`).
    Join(BarrierId),
    /// `WaitBarrier<b>`: block until every live participant of `b` is
    /// blocked on `b`, then release them all together (Volta `BSYNC`).
    Wait(BarrierId),
    /// `CancelBarrier<b>`: the issuing thread removes itself from the
    /// barrier's participation mask (Volta `BREAK`).
    Cancel(BarrierId),
    /// `RejoinBarrier<b>`: re-enter a barrier previously cleared by a wait;
    /// semantically identical to [`BarrierOp::Join`] but kept distinct so
    /// the passes and tests can see which primitive placed it.
    Rejoin(BarrierId),
    /// Copy the participation mask of `src` into `dst` (used by the
    /// soft-barrier lowering, Figure 6 of the paper).
    Copy {
        /// Destination barrier register.
        dst: BarrierId,
        /// Source barrier register.
        src: BarrierId,
    },
    /// Write the number of current participants of `bar` into register
    /// `dst` (the `arrivedThreads` predicate of Figure 6).
    ArrivedCount {
        /// Destination register.
        dst: Reg,
        /// Barrier whose participant count is read.
        bar: BarrierId,
    },
}

impl BarrierOp {
    /// The barrier register this operation names, when it names exactly one.
    pub fn barrier(self) -> Option<BarrierId> {
        match self {
            BarrierOp::Join(b)
            | BarrierOp::Wait(b)
            | BarrierOp::Cancel(b)
            | BarrierOp::Rejoin(b)
            | BarrierOp::ArrivedCount { bar: b, .. } => Some(b),
            BarrierOp::Copy { .. } => None,
        }
    }

    /// Whether this operation adds the thread to a participation mask
    /// (Join or Rejoin — both lower to `BSSY`).
    pub fn is_join_like(self) -> bool {
        matches!(self, BarrierOp::Join(_) | BarrierOp::Rejoin(_))
    }
}

/// Reference to a function: either by id (resolved) or by name (pre-link).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FuncRef {
    /// A resolved reference into the module's function table.
    Id(FuncId),
    /// An unresolved, by-name reference (produced by the parser; resolved
    /// by [`crate::Module::resolve_calls`]).
    Name(String),
}

impl fmt::Display for FuncRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Resolved references print as `@fn<N>` — a reserved name the
            // parser maps back to the id (user function names of that
            // shape are rejected by the verifier).
            FuncRef::Id(id) => write!(f, "@{id}"),
            FuncRef::Name(n) => write!(f, "@{n}"),
        }
    }
}

/// A non-terminator instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    /// Binary ALU operation: `dst = op(lhs, rhs)`.
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
    /// Unary ALU operation: `dst = op(src)`.
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
    /// Select: `dst = cond ? if_true : if_false` (no divergence).
    Sel {
        /// Destination register.
        dst: Reg,
        /// Condition (non-zero selects `if_true`).
        cond: Operand,
        /// Value when the condition is true.
        if_true: Operand,
        /// Value when the condition is false.
        if_false: Operand,
    },
    /// Memory load: `dst = space[addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Memory space.
        space: MemSpace,
        /// Cell address.
        addr: Operand,
    },
    /// Memory store: `space[addr] = value`.
    Store {
        /// Memory space.
        space: MemSpace,
        /// Cell address.
        addr: Operand,
        /// Value to store.
        value: Operand,
    },
    /// Atomic fetch-add on global memory: `dst = old; [addr] += value`.
    /// This is the work-queue primitive used by thread coarsening.
    AtomicAdd {
        /// Receives the pre-add value.
        dst: Reg,
        /// Cell address (global space).
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
    /// Advance the per-thread RNG and write a sample.
    Rng {
        /// Destination register.
        dst: Reg,
        /// Sample kind.
        kind: RngKind,
    },
    /// Re-seed the per-thread RNG from a value (counter-based streams:
    /// seeding with a task id makes a task's random sequence independent
    /// of which thread runs it — how production Monte Carlo kernels use
    /// Philox-style generators).
    SeedRng {
        /// Seed source.
        src: Operand,
    },
    /// CUDA's `__syncthreads`: a *correctness* barrier — every live
    /// thread of the warp must arrive before any proceeds (§2 of the
    /// paper contrasts these with convergence barriers, which are purely
    /// performance hints). Reaching it divergently (some threads on a
    /// path that never executes it) is a programming error and deadlocks,
    /// exactly as on hardware.
    SyncThreads,
    /// Warp-synchronous vote (CUDA's `__popc(__ballot_sync(...))`): every
    /// lane in the *currently converged group* receives the number of
    /// group lanes whose predicate is non-zero. The result depends on the
    /// convergence state, which is why §6 of the paper says such
    /// operations inhibit automatic Speculative Reconvergence — the
    /// detector refuses regions containing votes.
    Vote {
        /// Destination register (receives the count).
        dst: Reg,
        /// Per-lane predicate.
        pred: Operand,
    },
    /// Call a device function. Arguments are copied into the callee's
    /// parameter registers; on return, the callee's return operands are
    /// copied into `rets`.
    Call {
        /// Callee.
        func: FuncRef,
        /// Argument operands.
        args: Vec<Operand>,
        /// Registers receiving return values.
        rets: Vec<Reg>,
    },
    /// Convergence-barrier operation.
    Barrier(BarrierOp),
    /// Synthetic compute of the given cost in cycles — the `Expensive()`
    /// knob of the paper's motivating examples. Semantically a no-op.
    Work {
        /// Issue cost in cycles.
        amount: u32,
    },
    /// No operation (unit cost).
    Nop,
}

impl Inst {
    /// Destination register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Sel { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::AtomicAdd { dst, .. }
            | Inst::Special { dst, .. }
            | Inst::Rng { dst, .. }
            | Inst::Vote { dst, .. }
            | Inst::Barrier(BarrierOp::ArrivedCount { dst, .. }) => Some(*dst),
            Inst::Call { .. }
            | Inst::Barrier(_)
            | Inst::Store { .. }
            | Inst::SeedRng { .. }
            | Inst::SyncThreads
            | Inst::Work { .. }
            | Inst::Nop => None,
        }
    }

    /// Operands read by this instruction.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Inst::Bin { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::SeedRng { src } => vec![*src],
            Inst::Vote { pred, .. } => vec![*pred],
            Inst::Sel { cond, if_true, if_false, .. } => vec![*cond, *if_true, *if_false],
            Inst::Load { addr, .. } => vec![*addr],
            Inst::Store { addr, value, .. } => vec![*addr, *value],
            Inst::AtomicAdd { addr, value, .. } => vec![*addr, *value],
            Inst::Call { args, .. } => args.clone(),
            Inst::Special { .. }
            | Inst::Rng { .. }
            | Inst::Barrier(_)
            | Inst::SyncThreads
            | Inst::Work { .. }
            | Inst::Nop => Vec::new(),
        }
    }

    /// Whether this is a barrier operation.
    pub fn is_barrier(&self) -> bool {
        matches!(self, Inst::Barrier(_))
    }

    /// Whether this instruction's result or side effect depends on the
    /// warp's convergence state or on cross-lane execution order.
    ///
    /// Such instructions must never be moved into a melded (guarded)
    /// region: a [`Inst::Vote`] reads the converged-group mask, a
    /// [`Inst::SyncThreads`] / [`Inst::Barrier`] participates in the
    /// barrier protocol, and a [`Inst::Call`] or [`Inst::AtomicAdd`] has
    /// observable ordering the mask-predication would reshuffle. The
    /// melding pass refuses to align them, and the lint rejects modules
    /// where one ended up inside a `meld_*` block anyway.
    pub fn convergence_sensitive(&self) -> bool {
        matches!(
            self,
            Inst::Vote { .. }
                | Inst::SyncThreads
                | Inst::Barrier(_)
                | Inst::Call { .. }
                | Inst::AtomicAdd { .. }
        )
    }
}

/// Block terminators.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a per-thread value.
    Branch {
        /// Condition operand (non-zero takes `then_bb`).
        cond: Operand,
        /// Target when the condition is non-zero.
        then_bb: BlockId,
        /// Target when the condition is zero.
        else_bb: BlockId,
        /// Hint that the condition is expected to vary across the lanes of
        /// a warp. Used by the PDOM pass and the §4.5 detector; has no
        /// execution semantics.
        divergent: bool,
    },
    /// Return from a device function with the given values.
    Return(Vec<Operand>),
    /// Terminate the thread (kernel exit). Releases the thread from all
    /// barriers, as Volta's `EXIT` does.
    Exit,
}

impl Terminator {
    /// Successor blocks of this terminator (empty for return/exit).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { then_bb, else_bb, .. } => {
                if then_bb == else_bb {
                    vec![*then_bb]
                } else {
                    vec![*then_bb, *else_bb]
                }
            }
            Terminator::Return(_) | Terminator::Exit => Vec::new(),
        }
    }

    /// Rewrites every successor through `f` (used by transforms that split
    /// edges or insert blocks).
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch { then_bb, else_bb, .. } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            Terminator::Return(_) | Terminator::Exit => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin { op: BinOp::Add, dst: Reg(2), lhs: Reg(0).into(), rhs: 5i64.into() };
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.uses().len(), 2);

        let s = Inst::Store { space: MemSpace::Global, addr: Reg(1).into(), value: 3i64.into() };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().len(), 2);
    }

    #[test]
    fn arrived_count_defines_register() {
        let i = Inst::Barrier(BarrierOp::ArrivedCount { dst: Reg(4), bar: BarrierId(1) });
        assert_eq!(i.def(), Some(Reg(4)));
        assert!(i.is_barrier());
    }

    #[test]
    fn branch_successors_deduplicate() {
        let t = Terminator::Branch {
            cond: Operand::imm_i64(1),
            then_bb: BlockId(3),
            else_bb: BlockId(3),
            divergent: false,
        };
        assert_eq!(t.successors(), vec![BlockId(3)]);
    }

    #[test]
    fn map_successors_rewrites_all() {
        let mut t = Terminator::Branch {
            cond: Operand::imm_i64(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            divergent: true,
        };
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(t.successors(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn barrier_op_accessors() {
        assert_eq!(BarrierOp::Join(BarrierId(3)).barrier(), Some(BarrierId(3)));
        assert_eq!(BarrierOp::Copy { dst: BarrierId(0), src: BarrierId(1) }.barrier(), None);
        assert!(BarrierOp::Rejoin(BarrierId(0)).is_join_like());
        assert!(!BarrierOp::Wait(BarrierId(0)).is_join_like());
    }
}
