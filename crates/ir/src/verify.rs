//! Structural verifier for modules.
//!
//! [`verify_module`] checks the invariants the simulator and the passes
//! rely on: in-range registers/blocks/barriers, resolved calls with
//! consistent arities, and well-formed predictions. Run it after
//! construction or after any transform; the pass pipeline in
//! `specrecon-core` runs it automatically in debug builds.

use crate::function::{FuncKind, Function, Module, PredictTarget};
use crate::ids::{BlockId, FuncId, Reg};
use crate::inst::{FuncRef, Inst, Operand, Terminator};
use std::fmt;

/// Most registers a function may declare. Every engine sizes its
/// register arena (`warps × lanes × regs` cells) from the header, which
/// is whatever the text says, so the count is bounded here: 65 536 is
/// more than two orders of magnitude above any registry or corpus kernel
/// (the largest declares 137). `params` is bounded through `regs`.
pub const MAX_REGS: usize = 1 << 16;

/// Most barrier registers a function may declare: the barrier analyses
/// size a bit set per block from it, the simulator a mask per warp. 4 096
/// is orders of magnitude above what allocation produces (tens).
pub const MAX_BARRIERS: usize = 1 << 12;

/// A single verifier finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem was found.
    pub function: String,
    /// Block in which the problem was found, if block-specific.
    pub block: Option<BlockId>,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            Some(b) => write!(f, "@{} {}: {}", self.function, b, self.message),
            None => write!(f, "@{}: {}", self.function, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function in the module.
///
/// # Errors
///
/// Returns all violations found (never an empty vector on `Err`).
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();

    // Pre-compute the return arity of each function (None = inconsistent or
    // no returns).
    let ret_arities: Vec<Option<usize>> =
        module.functions.iter().map(|(_, f)| return_arity(f)).collect();

    for (_, func) in module.functions.iter() {
        verify_function(module, func, &ret_arities, &mut errors);
    }

    verify_barrier_discipline(module, &mut errors);

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Barrier discipline: a `wait` on a barrier register that no code in the
/// module ever populates (via `join`, `rejoin`, or a `bcopy` destination)
/// is almost certainly a bug — it can only ever pass through on an empty
/// mask. Barrier state is warp-global, so the check is module-wide (the
/// interprocedural pass joins in the caller and waits in the callee).
fn verify_barrier_discipline(module: &Module, errors: &mut Vec<VerifyError>) {
    use crate::inst::BarrierOp;
    let mut defined = std::collections::HashSet::new();
    for (_, f) in module.functions.iter() {
        for (_, block) in f.blocks.iter() {
            for inst in &block.insts {
                match inst {
                    Inst::Barrier(BarrierOp::Join(b)) | Inst::Barrier(BarrierOp::Rejoin(b)) => {
                        defined.insert(*b);
                    }
                    Inst::Barrier(BarrierOp::Copy { dst, .. }) => {
                        defined.insert(*dst);
                    }
                    _ => {}
                }
            }
        }
    }
    for (_, f) in module.functions.iter() {
        for (bb, block) in f.blocks.iter() {
            for inst in &block.insts {
                if let Inst::Barrier(BarrierOp::Wait(b)) = inst {
                    if !defined.contains(b) {
                        errors.push(VerifyError {
                            function: f.name.clone(),
                            block: Some(bb),
                            message: format!(
                                "wait on barrier {b} that nothing in the module ever joins or copies into"
                            ),
                        });
                    }
                }
            }
        }
    }
}

fn return_arity(f: &Function) -> Option<usize> {
    let mut arity: Option<usize> = None;
    for (_, block) in f.blocks.iter() {
        if let Terminator::Return(vals) = &block.term {
            match arity {
                None => arity = Some(vals.len()),
                Some(a) if a == vals.len() => {}
                Some(_) => return None,
            }
        }
    }
    arity
}

fn verify_function(
    module: &Module,
    func: &Function,
    ret_arities: &[Option<usize>],
    errors: &mut Vec<VerifyError>,
) {
    let mut err = |block: Option<BlockId>, message: String| {
        errors.push(VerifyError { function: func.name.clone(), block, message });
    };

    if func.blocks.get(func.entry).is_none() {
        err(None, format!("entry block {} out of range", func.entry));
        return;
    }
    // `fn<N>` is the textual form of resolved function references; a user
    // function with such a name would make the syntax ambiguous.
    if let Some(digits) = func.name.strip_prefix("fn") {
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            err(None, format!("function name @{} is reserved (fn<N>)", func.name));
        }
    }
    if func.num_params > func.num_regs {
        err(None, format!("num_params {} exceeds num_regs {}", func.num_params, func.num_regs));
    }
    if func.num_regs > MAX_REGS {
        err(None, format!("num_regs {} exceeds the limit of {MAX_REGS}", func.num_regs));
    }
    if func.num_barriers > MAX_BARRIERS {
        err(
            None,
            format!("num_barriers {} exceeds the limit of {MAX_BARRIERS}", func.num_barriers),
        );
    }

    let check_reg = |r: Reg| r.index() < func.num_regs;
    let check_operand = |o: Operand| match o {
        Operand::Reg(r) => check_reg(r),
        Operand::Imm(_) => true,
    };

    let mut ret_arity_here: Option<usize> = None;

    for (bb, block) in func.blocks.iter() {
        for inst in &block.insts {
            if let Some(d) = inst.def() {
                if !check_reg(d) {
                    err(Some(bb), format!("destination register {d} out of range"));
                }
            }
            for u in inst.uses() {
                if !check_operand(u) {
                    err(Some(bb), format!("operand {u} out of range"));
                }
            }
            match inst {
                Inst::Barrier(op) => {
                    let mut check_bar = |b: crate::ids::BarrierId| {
                        if b.index() >= func.num_barriers {
                            err(Some(bb), format!("barrier register {b} out of range"));
                        }
                    };
                    match op {
                        crate::inst::BarrierOp::Copy { dst, src } => {
                            check_bar(*dst);
                            check_bar(*src);
                        }
                        other => {
                            if let Some(b) = other.barrier() {
                                check_bar(b);
                            }
                        }
                    }
                }
                Inst::Call { func: fr, args, rets } => match fr {
                    FuncRef::Name(n) => {
                        err(Some(bb), format!("unresolved call to @{n} (run resolve_calls)"));
                    }
                    FuncRef::Id(id) => match module.functions.get(*id) {
                        None => err(Some(bb), format!("call to out-of-range function {id}")),
                        Some(callee) => {
                            if callee.kind != FuncKind::Device {
                                err(
                                    Some(bb),
                                    format!("call to non-device function @{}", callee.name),
                                );
                            }
                            if args.len() != callee.num_params {
                                err(
                                    Some(bb),
                                    format!(
                                        "call to @{} passes {} args, expected {}",
                                        callee.name,
                                        args.len(),
                                        callee.num_params
                                    ),
                                );
                            }
                            if !rets.is_empty() {
                                match ret_arities[id.index()] {
                                    Some(a) if rets.len() <= a => {}
                                    Some(a) => err(
                                        Some(bb),
                                        format!(
                                            "call to @{} binds {} returns, callee returns {}",
                                            callee.name,
                                            rets.len(),
                                            a
                                        ),
                                    ),
                                    None => err(
                                        Some(bb),
                                        format!(
                                            "call to @{} binds returns but callee has inconsistent or no returns",
                                            callee.name
                                        ),
                                    ),
                                }
                            }
                            for r in rets {
                                if !check_reg(*r) {
                                    err(Some(bb), format!("return register {r} out of range"));
                                }
                            }
                        }
                    },
                },
                _ => {}
            }
        }
        match &block.term {
            Terminator::Jump(t) => {
                if func.blocks.get(*t).is_none() {
                    err(Some(bb), format!("jump target {t} out of range"));
                }
            }
            Terminator::Branch { cond, then_bb, else_bb, .. } => {
                if !check_operand(*cond) {
                    err(Some(bb), format!("branch condition {cond} out of range"));
                }
                for t in [then_bb, else_bb] {
                    if func.blocks.get(*t).is_none() {
                        err(Some(bb), format!("branch target {t} out of range"));
                    }
                }
            }
            Terminator::Return(vals) => {
                if func.kind == FuncKind::Kernel {
                    err(Some(bb), "kernel function contains `ret` (use `exit`)".to_string());
                }
                for v in vals {
                    if !check_operand(*v) {
                        err(Some(bb), format!("return operand {v} out of range"));
                    }
                }
                match ret_arity_here {
                    None => ret_arity_here = Some(vals.len()),
                    Some(a) if a != vals.len() => {
                        err(
                            Some(bb),
                            format!("inconsistent return arity ({} vs {})", vals.len(), a),
                        );
                    }
                    Some(_) => {}
                }
            }
            Terminator::Exit => {}
        }
    }

    for p in &func.predictions {
        if func.blocks.get(p.region_start).is_none() {
            err(None, format!("prediction region start {} out of range", p.region_start));
        }
        match &p.target {
            PredictTarget::Label(l) => {
                if func.block_by_label(l).is_none() {
                    err(None, format!("prediction targets unknown label `{l}`"));
                }
            }
            PredictTarget::Function(FuncRef::Name(n)) => {
                err(None, format!("prediction targets unresolved function @{n}"));
            }
            PredictTarget::Function(FuncRef::Id(id)) => {
                if module.functions.get(*id).is_none() {
                    err(None, format!("prediction targets out-of-range function {id}"));
                }
            }
        }
        if let Some(t) = p.threshold {
            if t > 1024 {
                err(None, format!("prediction threshold {t} is implausibly large"));
            }
        }
    }
}

/// Convenience: verify and panic with a readable message on failure.
/// Intended for tests and debug assertions.
///
/// # Panics
///
/// Panics if verification fails.
pub fn assert_verified(module: &Module) {
    if let Err(errors) = verify_module(module) {
        let mut msg = String::from("IR verification failed:\n");
        for e in &errors {
            msg.push_str(&format!("  - {e}\n"));
        }
        panic!("{msg}");
    }
}

/// Looks up a function and panics with a clear message if absent.
/// Convenience for tests and examples.
///
/// # Panics
///
/// Panics if no function with that name exists.
pub fn expect_function(module: &Module, name: &str) -> FuncId {
    module.function_by_name(name).unwrap_or_else(|| panic!("module has no function named @{name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;

    #[test]
    fn valid_module_passes() {
        let mut b = FunctionBuilder::new("k", FuncKind::Kernel, 1);
        let p = b.param(0);
        let x = b.bin(BinOp::Add, p, 1i64);
        b.store_global(x, 0i64);
        b.exit();
        let mut m = Module::new();
        m.add_function(b.finish());
        assert!(verify_module(&m).is_ok());
    }

    /// Headers are outside input and every engine allocates from them: a
    /// count far beyond any real kernel is a verify error, not a 700 GB
    /// arena (`exec`) or a 32 GB bit set (the barrier analyses).
    #[test]
    fn absurd_register_and_barrier_counts_are_rejected() {
        let hostile = [
            ("regs=4000000000000, barriers=0", "num_regs 4000000000000 exceeds the limit"),
            ("regs=4, barriers=4000000000", "num_barriers 4000000000 exceeds the limit"),
            ("regs=-1, barriers=0", "exceeds the limit"),
        ];
        for (header, needle) in hostile {
            let src = format!(
                "kernel @k(params=0, {header}, entry=bb0) {{\nbb0:\n  %r0 = special.tid\n  \
                 brdiv %r0, bb1, bb1\nbb1:\n  exit\n}}\n"
            );
            let module = crate::parse_and_link(&src).expect("the text parses");
            let errs = verify_module(&module).expect_err(header);
            assert!(errs.iter().any(|e| e.message.contains(needle)), "{header}: {errs:?}");
        }
        let at_limit = format!(
            "kernel @k(params=0, regs={MAX_REGS}, barriers={MAX_BARRIERS}, entry=bb0) {{\nbb0:\n  exit\n}}\n"
        );
        assert!(verify_module(&crate::parse_and_link(&at_limit).unwrap()).is_ok());
    }

    #[test]
    fn out_of_range_register_detected() {
        let mut b = FunctionBuilder::new("k", FuncKind::Kernel, 0);
        b.exit();
        let mut f = b.finish();
        f.blocks[f.entry].insts.push(Inst::Mov { dst: Reg(99), src: Operand::imm_i64(0) });
        let mut m = Module::new();
        m.add_function(f);
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("destination register")));
    }

    #[test]
    fn unresolved_call_detected() {
        let mut b = FunctionBuilder::new("k", FuncKind::Kernel, 0);
        b.call("ghost", vec![], 0);
        b.exit();
        let mut m = Module::new();
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unresolved call")));
    }

    #[test]
    fn kernel_with_ret_detected() {
        let mut b = FunctionBuilder::new("k", FuncKind::Kernel, 0);
        b.ret(vec![]);
        let mut m = Module::new();
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("contains `ret`")));
    }

    #[test]
    fn prediction_with_unknown_label_detected() {
        let mut b = FunctionBuilder::new("k", FuncKind::Kernel, 0);
        b.predict_label("nowhere", None);
        b.exit();
        let mut m = Module::new();
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown label")));
    }

    #[test]
    fn reserved_function_name_detected() {
        let mut m = Module::new();
        m.add_function(Function::new("fn3", FuncKind::Kernel, 0));
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("reserved")));
    }

    #[test]
    fn resolved_call_round_trips_through_text() {
        let src = "kernel @k(params=0, regs=2, barriers=0, entry=bb0) {\nbb0:\n  call @f(1) -> (%r0)\n  exit\n}\ndevice @f(params=1, regs=2, barriers=0, entry=bb0) {\nbb0:\n  %r1 = add %r0, 1\n  ret %r1\n}\n";
        let m = crate::parse::parse_and_link(src).unwrap();
        let printed = m.to_string();
        assert!(printed.contains("call @fn1(1)"), "{printed}");
        let reparsed = crate::parse::parse_module(&printed).unwrap();
        assert_eq!(m, reparsed);
    }

    #[test]
    fn wait_on_never_joined_barrier_detected() {
        let src =
            "kernel @k(params=0, regs=1, barriers=1, entry=bb0) {\nbb0:\n  wait b0\n  exit\n}\n";
        let m = crate::parse::parse_module(src).unwrap();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("ever joins")));
    }

    #[test]
    fn wait_on_copied_barrier_is_fine() {
        let src = "kernel @k(params=0, regs=1, barriers=2, entry=bb0) {\nbb0:\n  join b0\n  bcopy b1, b0\n  wait b1\n  wait b0\n  exit\n}\n";
        let m = crate::parse::parse_module(src).unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn wait_joined_in_other_function_is_fine() {
        let src = "kernel @k(params=0, regs=1, barriers=1, entry=bb0) {\nbb0:\n  join b0\n  call @f()\n  exit\n}\ndevice @f(params=0, regs=1, barriers=1, entry=bb0) {\nbb0:\n  wait b0\n  ret\n}\n";
        let m = crate::parse::parse_and_link(src).unwrap();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn call_arity_mismatch_detected() {
        let src = "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  call @f(1, 2)\n  exit\n}\ndevice @f(params=1, regs=1, barriers=0, entry=bb0) {\nbb0:\n  ret\n}\n";
        let m = crate::parse::parse_and_link(src).unwrap();
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("passes 2 args")));
    }
}
