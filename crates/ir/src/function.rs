//! Functions, basic blocks, modules, and the reconvergence-prediction
//! annotations of §4.1 of the paper.

use crate::ids::{BarrierId, BlockId, FuncId, IdVec, Reg};
use crate::inst::{FuncRef, Inst, Terminator};
use std::collections::HashMap;
use std::fmt;

/// A basic block: a label, a straight-line instruction list, and a
/// terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Optional source-level label (used by the textual IR and by
    /// predictions to name reconvergence points).
    pub label: Option<String>,
    /// Non-terminator instructions, in order.
    pub insts: Vec<Inst>,
    /// The block terminator.
    pub term: Terminator,
    /// Whether this block is a region-of-interest for per-region SIMT
    /// efficiency accounting (the "Expensive()" code of the paper's
    /// examples). Set by workloads; read by the simulator's metrics.
    pub roi: bool,
}

impl Block {
    /// Creates an empty block ending in `Exit` (callers typically replace
    /// the terminator).
    pub fn new(label: Option<String>) -> Self {
        Self { label, insts: Vec::new(), term: Terminator::Exit, roi: false }
    }
}

/// What a prediction names as its reconvergence point.
#[derive(Clone, Debug, PartialEq)]
pub enum PredictTarget {
    /// A labelled block within the same function (Listing 1: `Predict(L1)`).
    Label(String),
    /// The entry of a function — the interprocedural variant of §4.4
    /// (`Predict(foo)`).
    Function(FuncRef),
}

/// A user- or tool-supplied reconvergence prediction (§4.1).
///
/// The *prediction region* starts at [`Prediction::region_start`] and
/// extends as far as threads can still reach the target; the compiler
/// derives the region's extent itself. The optional
/// [`Prediction::threshold`] selects the soft-barrier variant of §4.6.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Block containing the `Predict(...)` directive; the region start.
    pub region_start: BlockId,
    /// The predicted reconvergence point.
    pub target: PredictTarget,
    /// If set, lower to a soft barrier that releases once this many
    /// threads have arrived (0 and 1 behave like no waiting; the warp
    /// width behaves like a full barrier).
    pub threshold: Option<u32>,
}

/// Whether a function is a kernel entry point or a device subroutine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuncKind {
    /// Launchable kernel. Takes its arguments from launch parameters.
    Kernel,
    /// Device function callable from kernels or other device functions.
    Device,
}

/// A function: a CFG of [`Block`]s plus register/barrier frames and any
/// reconvergence predictions attached to it.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name (unique within a module).
    pub name: String,
    /// Kernel or device function.
    pub kind: FuncKind,
    /// Number of parameters; parameters occupy registers `0..num_params`.
    pub num_params: usize,
    /// Size of the per-thread register frame.
    pub num_regs: usize,
    /// Number of barrier registers used by this function.
    pub num_barriers: usize,
    /// Basic blocks. The entry block is [`Function::entry`].
    pub blocks: IdVec<BlockId, Block>,
    /// Entry block id.
    pub entry: BlockId,
    /// Reconvergence predictions (§4.1) attached to this function.
    pub predictions: Vec<Prediction>,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: impl Into<String>, kind: FuncKind, num_params: usize) -> Self {
        let mut blocks = IdVec::new();
        let entry = blocks.push(Block::new(Some("entry".to_string())));
        Self {
            name: name.into(),
            kind,
            num_params,
            num_regs: num_params,
            num_barriers: 0,
            blocks,
            entry,
            predictions: Vec::new(),
        }
    }

    /// Allocates a fresh virtual register.
    pub fn alloc_reg(&mut self) -> Reg {
        let r = Reg::new(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Allocates a fresh barrier register.
    pub fn alloc_barrier(&mut self) -> BarrierId {
        let b = BarrierId::new(self.num_barriers);
        self.num_barriers += 1;
        b
    }

    /// Appends a new empty block (terminator `Exit`) and returns its id.
    pub fn add_block(&mut self, label: Option<String>) -> BlockId {
        self.blocks.push(Block::new(label))
    }

    /// Finds the block with the given label.
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.blocks.iter().find(|(_, b)| b.label.as_deref() == Some(label)).map(|(id, _)| id)
    }

    /// Successors of a block.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        self.blocks[b].term.successors()
    }

    /// Splits the edge `from -> to`, inserting a fresh empty block on it,
    /// and returns the new block's id.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a successor of `from`.
    pub fn split_edge(&mut self, from: BlockId, to: BlockId) -> BlockId {
        assert!(
            self.successors(from).contains(&to),
            "split_edge: {to} is not a successor of {from}"
        );
        let mid = self.add_block(None);
        self.blocks[mid].term = Terminator::Jump(to);
        self.blocks[from].term.map_successors(|s| if s == to { mid } else { s });
        mid
    }

    /// Total number of non-terminator instructions across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|(_, b)| b.insts.len()).sum()
    }
}

/// A module: a set of functions with unique names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Module {
    /// Functions in definition order.
    pub functions: IdVec<FuncId, Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a function with the same name already exists.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        assert!(self.function_by_name(&f.name).is_none(), "duplicate function name {:?}", f.name);
        self.functions.push(f)
    }

    /// Looks up a function id by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().find(|(_, f)| f.name == name).map(|(id, _)| id)
    }

    /// Resolves every by-name [`FuncRef`] (in call instructions and in
    /// interprocedural predictions) into an id reference.
    ///
    /// # Errors
    ///
    /// Returns the unresolved name if any reference does not match a
    /// function in the module.
    pub fn resolve_calls(&mut self) -> Result<(), String> {
        let names: HashMap<String, FuncId> =
            self.functions.iter().map(|(id, f)| (f.name.clone(), id)).collect();
        let resolve = |fr: &mut FuncRef| -> Result<(), String> {
            if let FuncRef::Name(n) = fr {
                match names.get(n.as_str()) {
                    Some(id) => *fr = FuncRef::Id(*id),
                    None => return Err(n.clone()),
                }
            }
            Ok(())
        };
        for (_, f) in self.functions.iter_mut() {
            for (_, block) in f.blocks.iter_mut() {
                for inst in &mut block.insts {
                    if let Inst::Call { func, .. } = inst {
                        resolve(func)?;
                    }
                }
            }
            for p in &mut f.predictions {
                if let PredictTarget::Function(fr) = &mut p.target {
                    resolve(fr)?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for FuncKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncKind::Kernel => write!(f, "kernel"),
            FuncKind::Device => write!(f, "device"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    fn diamond() -> Function {
        // entry -> (a | b) -> join -> exit
        let mut f = Function::new("diamond", FuncKind::Kernel, 0);
        let a = f.add_block(Some("a".into()));
        let b = f.add_block(Some("b".into()));
        let join = f.add_block(Some("join".into()));
        f.blocks[f.entry].term = Terminator::Branch {
            cond: Operand::imm_i64(1),
            then_bb: a,
            else_bb: b,
            divergent: true,
        };
        f.blocks[a].term = Terminator::Jump(join);
        f.blocks[b].term = Terminator::Jump(join);
        f.blocks[join].term = Terminator::Exit;
        f
    }

    #[test]
    fn split_edge_inserts_block() {
        let mut f = diamond();
        let a = f.block_by_label("a").unwrap();
        let join = f.block_by_label("join").unwrap();
        let mid = f.split_edge(a, join);
        assert_eq!(f.successors(a), vec![mid]);
        assert_eq!(f.successors(mid), vec![join]);
    }

    #[test]
    #[should_panic(expected = "not a successor")]
    fn split_nonexistent_edge_panics() {
        let mut f = diamond();
        let a = f.block_by_label("a").unwrap();
        let b = f.block_by_label("b").unwrap();
        f.split_edge(a, b);
    }

    #[test]
    fn resolve_calls_by_name() {
        let mut m = Module::new();
        let mut caller = Function::new("caller", FuncKind::Kernel, 0);
        caller.blocks[caller.entry].insts.push(Inst::Call {
            func: FuncRef::Name("callee".into()),
            args: vec![],
            rets: vec![],
        });
        m.add_function(caller);
        m.add_function(Function::new("callee", FuncKind::Device, 0));
        m.resolve_calls().unwrap();
        let caller_id = m.function_by_name("caller").unwrap();
        let f = &m.functions[caller_id];
        match &f.blocks[f.entry].insts[0] {
            Inst::Call { func: FuncRef::Id(id), .. } => {
                assert_eq!(*id, m.function_by_name("callee").unwrap());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resolve_calls_reports_missing() {
        let mut m = Module::new();
        let mut caller = Function::new("caller", FuncKind::Kernel, 0);
        caller.blocks[caller.entry].insts.push(Inst::Call {
            func: FuncRef::Name("ghost".into()),
            args: vec![],
            rets: vec![],
        });
        m.add_function(caller);
        assert_eq!(m.resolve_calls(), Err("ghost".to_string()));
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_function_names_rejected() {
        let mut m = Module::new();
        m.add_function(Function::new("f", FuncKind::Kernel, 0));
        m.add_function(Function::new("f", FuncKind::Kernel, 0));
    }
}
