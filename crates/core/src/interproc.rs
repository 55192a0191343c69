//! Interprocedural Speculative Reconvergence (§4.4).
//!
//! A prediction can name a *function* instead of a label: all threads in
//! the region are expected to eventually call it (Figure 2(c): `foo()`
//! called from both sides of a divergent branch). The pass joins a barrier
//! at the region start and waits on it at the *callee's entry*, so threads
//! arriving from different call sites reconverge inside the shared body —
//! something post-dominator analysis can never discover because the calls
//! sit at different PCs.
//!
//! Barrier state is warp-level and shared across frames, which is what
//! makes the cross-function wait sound. When the caller can call the
//! predicted function again (a loop over the call site), membership is
//! rebuilt by a `Rejoin` in the callee entry immediately after the wait
//! — atomically with the release, since the released group is converged
//! there — and region escapes `Cancel`. The analysis side treats a call
//! to the predicted function as the barrier's wait-(and-rejoin) — the
//! call-graph summary propagation the paper describes.

use crate::error::PassError;
use crate::region::compute_region;
use simt_analysis::{BitSet, Cfg, FunctionAnalyses};
use simt_ir::{
    BarrierId, BarrierOp, BlockId, FuncId, FuncKind, FuncRef, Function, Inst, Module,
    PredictTarget, Terminator,
};

/// What the interprocedural pass did for one prediction.
#[derive(Clone, Debug)]
pub struct InterprocReport {
    /// The predicted callee.
    pub callee: FuncId,
    /// Barrier joined in the caller and waited on at the callee entry.
    pub barrier: BarrierId,
    /// Caller blocks containing calls to the callee (the region targets).
    pub call_blocks: Vec<BlockId>,
    /// Callee blocks that received a `RejoinBarrier` (the callee entry,
    /// right after its wait, when some call site will call again).
    pub rejoins: Vec<BlockId>,
    /// Blocks that received a `CancelBarrier` (region escapes).
    pub cancels: Vec<BlockId>,
}

/// Applies every function-target prediction in `caller_id`'s function;
/// `fa` holds the caller's analyses.
///
/// # Errors
///
/// Returns [`PassError::BadPrediction`] if the callee is unresolved, not a
/// device function, or never called from the prediction region.
pub fn apply_interprocedural(
    module: &mut Module,
    caller_id: FuncId,
    fa: &mut FunctionAnalyses,
) -> Result<Vec<InterprocReport>, PassError> {
    let mut reports = Vec::new();
    let predictions = module.functions[caller_id].predictions.clone();
    for p in &predictions {
        let callee = match &p.target {
            PredictTarget::Function(FuncRef::Id(id)) => *id,
            PredictTarget::Function(FuncRef::Name(n)) => {
                return Err(PassError::BadPrediction(format!(
                    "prediction targets unresolved function @{n} (run resolve_calls first)"
                )))
            }
            PredictTarget::Label(_) => continue,
        };
        reports.push(apply_one(module, caller_id, fa, callee, p.region_start)?);
    }
    Ok(reports)
}

fn apply_one(
    module: &mut Module,
    caller_id: FuncId,
    fa: &mut FunctionAnalyses,
    callee: FuncId,
    region_start: BlockId,
) -> Result<InterprocReport, PassError> {
    if module.functions[callee].kind != FuncKind::Device {
        return Err(PassError::BadPrediction(format!(
            "interprocedural prediction targets non-device function @{}",
            module.functions[callee].name
        )));
    }

    // Call sites in the caller.
    let caller = &module.functions[caller_id];
    let call_blocks: Vec<BlockId> =
        caller.blocks.ids().filter(|&b| block_calls(caller, b, callee) > 0).collect();
    if call_blocks.is_empty() {
        return Err(PassError::BadPrediction(format!(
            "@{} never calls predicted function @{}",
            module.functions[caller_id].name, module.functions[callee].name
        )));
    }

    let region = compute_region(&module.functions[caller_id], fa, region_start, &call_blocks);
    if call_blocks.iter().all(|c| !region.blocks.contains(c.index())) {
        return Err(PassError::BadPrediction(format!(
            "no call to @{} is reachable from the region start {region_start}",
            module.functions[callee].name
        )));
    }

    // Allocate the barrier in the caller; the callee must declare at least
    // as many barrier registers since its entry references it.
    let bar = module.functions[caller_id].alloc_barrier();
    let needed = module.functions[caller_id].num_barriers;
    let callee_func = &mut module.functions[callee];
    callee_func.num_barriers = callee_func.num_barriers.max(needed);
    callee_func.blocks[callee_func.entry].insts.insert(0, Inst::Barrier(BarrierOp::Wait(bar)));

    // Join in the caller at the region start — but if the region-start
    // block itself contains a call to the callee, the join must precede
    // it, or the callee-entry wait would run on a never-populated mask
    // and reconverge nothing.
    let caller = &mut module.functions[caller_id];
    let start_insts = &mut caller.blocks[region_start].insts;
    let first_call = start_insts
        .iter()
        .position(|i| matches!(i, Inst::Call { func: FuncRef::Id(id), .. } if *id == callee));
    match first_call {
        Some(i) => start_insts.insert(i, Inst::Barrier(BarrierOp::Join(bar))),
        None => start_insts.push(Inst::Barrier(BarrierOp::Join(bar))),
    }

    // "Call to callee lies ahead" — block-level backward reachability used
    // for both Rejoin (will some site call again?) and Cancel (no call
    // ahead at a region-escape target).
    let call_ahead_in = call_ahead_map(caller, fa.of(caller), callee);

    // Rejoin when some call site will call again (loops over the call
    // site). The rejoin must sit in the *callee*, immediately after the
    // entry wait: the released group is converged at the wait's pc, so
    // its very next issue re-registers every lane before anything else
    // can run. Rejoining in the caller (after the call) is racy — one
    // call site's group can rejoin, run the whole loop, and re-wait
    // while the other site's group has not rejoined yet, so the barrier
    // trips on the subset and the warp desynchronizes permanently.
    // Lanes whose current call was their last leave through a region
    // escape, where the Cancel below withdraws them.
    let mut rejoins = Vec::new();
    if calls_again(caller, fa.of(caller), callee) {
        let callee_func = &mut module.functions[callee];
        callee_func.blocks[callee_func.entry]
            .insts
            .insert(1, Inst::Barrier(BarrierOp::Rejoin(bar)));
        rejoins.push(callee_func.entry);
    }
    let caller = &mut module.functions[caller_id];

    // Cancel at region-escape targets where no call lies ahead.
    let mut cancels = Vec::new();
    for &(_, to) in &region.escape_edges {
        if !call_ahead_in.contains(to.index()) && !cancels.contains(&to) {
            caller.blocks[to].insts.insert(0, Inst::Barrier(BarrierOp::Cancel(bar)));
            cancels.push(to);
        }
    }

    Ok(InterprocReport { callee, barrier: bar, call_blocks, rejoins, cancels })
}

/// Per-block "a call to `callee` lies at or after this block's entry" —
/// block-level backward reachability over the caller's CFG.
pub(crate) fn call_ahead_map(caller: &Function, cfg: &Cfg, callee: FuncId) -> BitSet {
    let sites = caller.blocks.ids().filter(|&b| block_calls(caller, b, callee) > 0);
    BitSet::reach(caller.blocks.len(), sites, |b| cfg.preds(b).iter().copied(), |_| true)
}

/// Whether any call site in `caller` can reach another call to `callee`
/// — the condition under which the §4.4 pass arms the callee-entry
/// `Rejoin`. Shared with the call-wait view so per-function analyses
/// model the same membership lifetime the pass emitted.
pub(crate) fn calls_again(caller: &Function, cfg: &Cfg, callee: FuncId) -> bool {
    let ahead = call_ahead_map(caller, cfg, callee);
    caller.blocks.ids().any(|b| {
        let sites = block_calls(caller, b, callee);
        sites > 1 || (sites > 0 && cfg.succs(b).iter().any(|s| ahead.contains(s.index())))
    })
}

fn block_calls(caller: &Function, b: BlockId, callee: FuncId) -> usize {
    caller.blocks[b]
        .insts
        .iter()
        .filter(|i| matches!(i, Inst::Call { func: FuncRef::Id(id), .. } if *id == callee))
        .count()
}

/// Creates a wrapper device function around `callee` and returns its id.
///
/// The paper uses wrappers for extern functions and for functions called
/// from multiple independent regions: the wrapper body is the
/// reconvergence point, leaving the original callee untouched.
///
/// # Panics
///
/// Panics if `callee` does not exist or a function named
/// `<callee>_reconv_wrapper` already exists.
pub fn make_wrapper(module: &mut Module, callee: &str) -> FuncId {
    let callee_id = module.function_by_name(callee).expect("wrapper callee exists");
    let (num_params, ret_arity) = {
        let f = &module.functions[callee_id];
        let arity = f
            .blocks
            .iter()
            .find_map(|(_, b)| match &b.term {
                Terminator::Return(vals) => Some(vals.len()),
                _ => None,
            })
            .unwrap_or(0);
        (f.num_params, arity)
    };

    let mut wrapper =
        Function::new(format!("{callee}_reconv_wrapper"), FuncKind::Device, num_params);
    let args: Vec<simt_ir::Operand> =
        (0..num_params).map(|i| simt_ir::Operand::Reg(simt_ir::Reg::new(i))).collect();
    let rets: Vec<simt_ir::Reg> = (0..ret_arity).map(|_| wrapper.alloc_reg()).collect();
    let entry = wrapper.entry;
    wrapper.blocks[entry].insts.push(Inst::Call {
        func: FuncRef::Id(callee_id),
        args,
        rets: rets.clone(),
    });
    wrapper.blocks[entry].term =
        Terminator::Return(rets.into_iter().map(simt_ir::Operand::Reg).collect());
    module.add_function(wrapper)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_and_link;
    use simt_ir::Value;
    use simt_sim::{run, Launch, SimConfig};

    /// Figure 2(c): foo() called from both sides of a divergent branch.
    fn fig2c() -> Module {
        parse_and_link(
            r#"
kernel @main(params=0, regs=6, barriers=0, entry=bb0) {
  predict bb0 -> func @foo
bb0:
  %r0 = special.lane
  %r1 = and %r0, 1
  brdiv %r1, bb1, bb2
bb1:
  work 3
  call @foo(%r0) -> (%r2)
  jmp bb3
bb2:
  work 9
  call @foo(%r0) -> (%r2)
  jmp bb3
bb3:
  %r3 = special.tid
  store global[%r3], %r2
  exit
}
device @foo(params=1, regs=3, barriers=0, entry=bb0) {
bb0:
  nop
  jmp bb1
bb1 (roi):
  work 50
  %r1 = mul %r0, 3
  %r2 = add %r1, 1
  ret %r2
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn fig2c_reconverges_inside_function_body() {
        let mut m = fig2c();
        let caller = m.function_by_name("main").unwrap();
        let reports =
            apply_interprocedural(&mut m, caller, &mut FunctionAnalyses::default()).unwrap();
        assert_eq!(reports.len(), 1);
        let rep = &reports[0];
        assert_eq!(rep.call_blocks.len(), 2);
        assert!(rep.rejoins.is_empty(), "single call per path: no rejoin");

        // Wait sits at the callee entry.
        let foo = &m.functions[rep.callee];
        assert_eq!(foo.blocks[foo.entry].insts[0], Inst::Barrier(BarrierOp::Wait(rep.barrier)));

        simt_ir::assert_verified(&m);
        let mut launch = Launch::new("main", 2);
        launch.global_mem = vec![Value::I64(0); 64];
        let out = run(&m, &SimConfig::default(), &launch).unwrap();
        // The function body runs fully converged despite two call sites.
        assert_eq!(out.metrics.roi_simt_efficiency(), 1.0);
        // And the results are correct.
        assert_eq!(out.global_mem[4], Value::I64(13));
    }

    #[test]
    fn without_pass_function_body_is_divergent() {
        let mut m = fig2c();
        let caller = m.function_by_name("main").unwrap();
        m.functions[caller].predictions.clear();
        let mut launch = Launch::new("main", 2);
        launch.global_mem = vec![Value::I64(0); 64];
        let out = run(&m, &SimConfig::default(), &launch).unwrap();
        let roi = out.metrics.roi_simt_efficiency();
        assert!(roi < 0.8, "expected divergent body without the pass, got {roi}");
    }

    #[test]
    fn call_in_loop_gets_rejoin() {
        let mut m = parse_and_link(
            r#"
kernel @main(params=0, regs=6, barriers=0, entry=bb0) {
  predict bb0 -> func @foo
bb0:
  %r1 = mov 0
  jmp bb1
bb1:
  call @foo(%r1) -> (%r2)
  %r1 = add %r1, 1
  %r3 = lt %r1, 4
  brdiv %r3, bb1, bb2
bb2:
  exit
}
device @foo(params=1, regs=2, barriers=0, entry=bb0) {
bb0:
  %r1 = add %r0, 1
  ret %r1
}
"#,
        )
        .unwrap();
        let caller = m.function_by_name("main").unwrap();
        let reports =
            apply_interprocedural(&mut m, caller, &mut FunctionAnalyses::default()).unwrap();
        assert_eq!(reports[0].rejoins.len(), 1, "loop call must rejoin");
        assert_eq!(reports[0].cancels.len(), 1, "loop exit must cancel");
        // The rejoin sits in the callee, right after the entry wait —
        // membership is rebuilt by the released (converged) group's very
        // next issue, before any lane can loop around and re-wait.
        let foo = &m.functions[reports[0].callee];
        let bar = reports[0].barrier;
        assert_eq!(foo.blocks[foo.entry].insts[0], Inst::Barrier(BarrierOp::Wait(bar)));
        assert_eq!(foo.blocks[foo.entry].insts[1], Inst::Barrier(BarrierOp::Rejoin(bar)));
        simt_ir::assert_verified(&m);
        let out = run(&m, &SimConfig::default(), &Launch::new("main", 1)).unwrap();
        assert!(out.metrics.issues > 0);
    }

    #[test]
    fn missing_call_is_reported() {
        let mut m = parse_and_link(
            r#"
kernel @main(params=0, regs=2, barriers=0, entry=bb0) {
  predict bb0 -> func @foo
bb0:
  exit
}
device @foo(params=0, regs=1, barriers=0, entry=bb0) {
bb0:
  ret
}
"#,
        )
        .unwrap();
        let caller = m.function_by_name("main").unwrap();
        let err =
            apply_interprocedural(&mut m, caller, &mut FunctionAnalyses::default()).unwrap_err();
        assert!(matches!(err, PassError::BadPrediction(msg) if msg.contains("never calls")));
    }

    #[test]
    fn wrapper_forwards_args_and_returns() {
        let m = parse_and_link(
            r#"
kernel @main(params=0, regs=3, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  call @foo_reconv_wrapper(%r0) -> (%r1)
  store global[%r0], %r1
  exit
}
device @foo(params=1, regs=2, barriers=0, entry=bb0) {
bb0:
  %r1 = mul %r0, 5
  ret %r1
}
"#,
        )
        .unwrap_err();
        // The wrapper does not exist yet — build the module without the
        // call first, then add the wrapper and re-link.
        let _ = m;
        let mut m = parse_and_link(
            r#"
device @foo(params=1, regs=2, barriers=0, entry=bb0) {
bb0:
  %r1 = mul %r0, 5
  ret %r1
}
"#,
        )
        .unwrap();
        let wid = make_wrapper(&mut m, "foo");
        assert_eq!(m.functions[wid].name, "foo_reconv_wrapper");
        assert_eq!(m.functions[wid].num_params, 1);

        // Use it from a kernel.
        let mut k = simt_ir::FunctionBuilder::new("main", FuncKind::Kernel, 0);
        let tid = k.special(simt_ir::SpecialValue::Tid);
        let rets = k.call("foo_reconv_wrapper", vec![tid.into()], 1);
        k.store_global(rets[0], tid);
        k.exit();
        m.add_function(k.finish());
        m.resolve_calls().unwrap();
        simt_ir::assert_verified(&m);
        let mut launch = Launch::new("main", 1);
        launch.global_mem = vec![Value::I64(0); 32];
        let out = run(&m, &SimConfig::default(), &launch).unwrap();
        assert_eq!(out.global_mem[3], Value::I64(15));
    }
}
