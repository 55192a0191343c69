//! # simt-ir — kernel IR for the Speculative Reconvergence reproduction
//!
//! This crate defines the compiler IR shared by the whole workspace: a
//! small CFG-based kernel language with first-class *convergence barrier*
//! instructions modelling NVIDIA Volta's `BSSY` / `BSYNC` / `BREAK`
//! (Table 1 of *Speculative Reconvergence for Improved SIMT Efficiency*,
//! CGO 2020), plus the `Predict(...)` reconvergence annotations of §4.1.
//!
//! The pieces:
//!
//! - [`Module`] / [`Function`] / [`Block`] — the CFG ([`function`]);
//! - [`Inst`] / [`Terminator`] / [`BarrierOp`] — the instruction set
//!   ([`inst`]);
//! - [`FunctionBuilder`] — fluent construction ([`builder`]);
//! - a textual syntax with a printer ([`display`]) and parser ([`parse`])
//!   that round-trip;
//! - a structural verifier ([`verify`]);
//! - dominator and post-dominator trees ([`dom`]), shared by the
//!   compiler passes and the simulator's IPDOM reconvergence table.
//!
//! ```
//! use simt_ir::{FunctionBuilder, FuncKind, BinOp, Module, verify_module};
//!
//! let mut b = FunctionBuilder::new("inc", FuncKind::Kernel, 0);
//! let tid = b.special(simt_ir::SpecialValue::Tid);
//! let v = b.load_global(tid);
//! let v2 = b.bin(BinOp::Add, v, 1i64);
//! b.store_global(v2, tid);
//! b.exit();
//!
//! let mut module = Module::new();
//! module.add_function(b.finish());
//! verify_module(&module).unwrap();
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod display;
pub mod dom;
pub mod dot;
pub mod function;
pub mod ids;
pub mod inst;
pub mod parse;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use dom::DomTree;
pub use dot::{function_to_dot, module_to_dot};
pub use function::{Block, FuncKind, Function, Module, PredictTarget, Prediction};
pub use ids::{BarrierId, BlockId, FuncId, IdVec, Reg};
pub use inst::{
    BarrierOp, BinOp, FuncRef, Inst, MemSpace, Operand, RngKind, SpecialValue, Terminator, UnOp,
};
pub use parse::{parse_and_link, parse_module, ParseError};
pub use value::{Value, ValueError};
pub use verify::{
    assert_verified, expect_function, verify_module, VerifyError, MAX_BARRIERS, MAX_REGS,
};
