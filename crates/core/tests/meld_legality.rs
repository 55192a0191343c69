//! Legality edge cases for the control-flow melding pass: instructions
//! whose semantics depend on the executing mask (atomics, warp votes)
//! must never migrate into a melded block, partial isomorphism must
//! leave the non-isomorphic work in residual blocks, and the barrier
//! lint must reject a module where a convergence-sensitive instruction
//! *did* end up under merged per-arm predicates.

use simt_analysis::FunctionAnalyses;
use simt_ir::{parse_module, Inst, Module, Value};
use simt_sim::{run, Launch, SimConfig};
use specrecon_core::{
    apply_melds, compile, detect_melds, lint_module, LintRule, LintSeverity, MeldOptions,
    RepairStrategy,
};

/// Compiles `m` under `repair` and runs it; returns (SIMT efficiency,
/// final global memory).
fn run_repair(m: &Module, repair: RepairStrategy) -> (f64, Vec<Value>) {
    let c = compile(m, &repair.options()).expect("compiles");
    let mut l = Launch::new(kernel_name(m), 1);
    l.global_mem = vec![Value::I64(0); 128];
    let out = run(&c.module, &SimConfig::default(), &l).expect("runs");
    (out.metrics.simt_efficiency(), out.global_mem)
}

fn kernel_name(m: &Module) -> String {
    m.functions.iter().next().expect("one function").1.name.clone()
}

/// Every instruction inside `meld_*`-labelled blocks of the module
/// compiled under the pure melding strategy.
fn melded_insts(m: &Module) -> Vec<Inst> {
    let c = compile(m, &RepairStrategy::Meld.options()).expect("compiles");
    let mut out = Vec::new();
    for (_, f) in c.module.functions.iter() {
        for (_, b) in f.blocks.iter() {
            if b.label.as_deref().is_some_and(|l| l.starts_with("meld_")) {
                out.extend(b.insts.iter().cloned());
            }
        }
    }
    out
}

/// Both arms end in an identical `atomic_add` — a side-effecting common
/// tail. The window must stop before it: atomics are only meldable by
/// proving the merged mask never changes observable interleaving, which
/// the pass does not attempt.
const ATOMIC_TAIL: &str = r#"
kernel @atomics(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r1 = rng.unit
  %r2 = lt %r1, 0.5f
  brdiv %r2, bb1, bb2
bb1 (roi):
  work 40
  %r3 = mul %r0, 3
  %r4 = atomic_add [64], %r3
  jmp bb3
bb2 (roi):
  work 40
  %r3 = mul %r0, 5
  %r4 = atomic_add [64], %r3
  jmp bb3
bb3:
  store global[%r0], %r3
  exit
}
"#;

#[test]
fn side_effecting_common_tail_stays_out_of_the_meld() {
    let m = parse_module(ATOMIC_TAIL).unwrap();
    let f = m.functions.iter().next().unwrap().1;
    let cands = detect_melds(f, &MeldOptions::default());
    assert_eq!(cands.len(), 1, "the work+mul prefix is meldable: {cands:?}");
    let c = &cands[0];
    assert_eq!((c.then_start, c.else_start, c.len), (0, 0, 2), "{c:?}");

    assert!(
        !melded_insts(&m).iter().any(|i| matches!(i, Inst::AtomicAdd { .. })),
        "atomic must stay in the residual epilogue"
    );
    let (_, pdom) = run_repair(&m, RepairStrategy::Pdom);
    let (_, meld) = run_repair(&m, RepairStrategy::Meld);
    assert_eq!(pdom, meld, "melding around the atomic must preserve results");
}

/// A warp vote sits mid-arm between two alignable runs. The aligned
/// window covers the prefix; the vote and everything after it stay in
/// the per-arm residual epilogues.
const VOTED_ARMS: &str = r#"
kernel @voted(params=0, regs=10, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r2 = mov 0
  %r1 = rng.unit
  %r5 = lt %r1, 0.5f
  brdiv %r5, bb1, bb2
bb1 (roi):
  work 40
  %r3 = mul %r0, 3
  %r3 = add %r3, 1
  %r7 = vote %r3
  %r2 = add %r2, %r3
  jmp bb3
bb2 (roi):
  work 40
  %r3 = mul %r0, 5
  %r3 = add %r3, 2
  %r7 = vote %r3
  %r2 = add %r2, %r3
  jmp bb3
bb3:
  store global[%r0], %r2
  exit
}
"#;

#[test]
fn sync_op_inside_a_candidate_is_fenced_into_the_residuals() {
    let m = parse_module(VOTED_ARMS).unwrap();
    let f = m.functions.iter().next().unwrap().1;
    let cands = detect_melds(f, &MeldOptions::default());
    assert_eq!(cands.len(), 1, "{cands:?}");
    let c = &cands[0];
    assert_eq!((c.then_start, c.len), (0, 3), "window must stop at the vote: {c:?}");

    let melded = melded_insts(&m);
    assert!(!melded.is_empty(), "the prefix does meld");
    assert!(
        !melded.iter().any(|i| matches!(i, Inst::Vote { .. })),
        "vote must stay in the residual epilogue: {melded:?}"
    );
    let (_, pdom) = run_repair(&m, RepairStrategy::Pdom);
    let (_, meld) = run_repair(&m, RepairStrategy::Meld);
    assert_eq!(pdom, meld);
}

/// Unbalanced arms in a loop: the then arm carries an extra prologue the
/// else arm lacks, and only the tails are isomorphic. Melding must align
/// the tails, keep the prologue divergent, preserve results, and still
/// beat both PDOM and SR on SIMT efficiency.
const UNBALANCED_LOOP: &str = r#"
kernel @unbal(params=0, regs=10, barriers=0, entry=bb0) {
  predict bb1 -> label L1
bb0:
  %r0 = special.tid
  %r1 = mov 0
  %r2 = mov 0
  %r3 = mov 0
  jmp bb1
bb1:
  %r4 = rng.unit
  %r5 = lt %r4, 0.3f
  brdiv %r5, bb2, bb3
bb2 (label=L1, roi):
  work 40
  work 80
  %r3 = mul %r0, 3
  %r3 = add %r3, 1
  %r2 = add %r2, %r3
  jmp bb4
bb3 (roi):
  work 80
  %r3 = mul %r0, 5
  %r3 = add %r3, 2
  %r2 = add %r2, %r3
  jmp bb4
bb4:
  %r1 = add %r1, 1
  %r6 = lt %r1, 16
  brdiv %r6, bb1, bb5
bb5:
  store global[%r0], %r2
  exit
}
"#;

#[test]
fn partial_isomorphism_melds_the_tail_and_wins() {
    let m = parse_module(UNBALANCED_LOOP).unwrap();
    let f = m.functions.iter().next().unwrap().1;
    let cands = detect_melds(f, &MeldOptions::default());
    assert_eq!(cands.len(), 1, "{cands:?}");
    let c = &cands[0];
    // Tail alignment: the then arm skips its private `work 40` prologue.
    assert_eq!((c.then_start, c.else_start, c.len), (1, 0, 4), "{c:?}");

    let (pdom_eff, pdom) = run_repair(&m, RepairStrategy::Pdom);
    let (sr_eff, sr) = run_repair(&m, RepairStrategy::Sr);
    let (meld_eff, meld) = run_repair(&m, RepairStrategy::Meld);
    assert_eq!(pdom, meld, "melding must preserve results");
    assert_eq!(pdom, sr, "SR must preserve results");
    assert!(meld_eff > pdom_eff, "meld {meld_eff} must beat pdom {pdom_eff}");
    assert!(meld_eff > sr_eff, "meld {meld_eff} must beat sr {sr_eff}");
}

#[test]
fn residual_prologue_survives_application() {
    let m = parse_module(UNBALANCED_LOOP).unwrap();
    let mut f = m.functions.iter().next().unwrap().1.clone();
    let diamond = detect_melds(&f, &MeldOptions::default())[0].diamond;
    let report = apply_melds(&mut f, &mut FunctionAnalyses::default(), &MeldOptions::default());
    assert_eq!(report.melded.len(), 1, "{report:?}");
    let region = &report.melded[0];
    assert_eq!(region.then_residual.0, 1, "then prologue keeps one instruction");
    assert_eq!(region.else_residual.0, 0, "else arm melds from its first instruction");
    let meld_block = &f.blocks[region.meld_block];
    assert!(meld_block.label.as_deref().is_some_and(|l| l.starts_with("meld_")));
    // The divergent prologue (`work 40`) is still in the then arm.
    let then_arm = &f.blocks[diamond.then_arm];
    assert!(matches!(then_arm.insts[..], [Inst::Work { .. }]), "{then_arm:?}");
}

/// An illegally melded module: a warp vote placed under a `meld_*`
/// label executes under merged per-arm predicates, which changes the
/// lanes it counts. The lint must reject it — this is the backstop
/// that makes pass bugs loud instead of silently wrong.
const ILLEGAL_MELD: &str = r#"
kernel @bad(params=0, regs=4, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  jmp bb1
bb1 (label=meld_0):
  %r1 = vote %r0
  store global[%r0], %r1
  exit
}
"#;

#[test]
fn lint_rejects_a_convergence_op_inside_a_melded_block() {
    let m = parse_module(ILLEGAL_MELD).unwrap();
    let findings = lint_module(&m);
    let hit = findings
        .iter()
        .find(|f| f.rule == LintRule::ConvergenceOpInMeld)
        .unwrap_or_else(|| panic!("lint must flag the vote: {findings:?}"));
    assert_eq!(hit.severity, LintSeverity::Error);
    assert_eq!(hit.inst, Some(0));
}
