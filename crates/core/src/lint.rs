//! Barrier-safety lint: path-sensitive structural checks on transformed
//! modules.
//!
//! [`simt_ir::verify_module`] performs coarse syntactic checks (every
//! waited barrier has *some* join somewhere in the module). This pass is
//! the flow-sensitive complement, built on the same
//! [`simt_analysis::dataflow`] solver as the paper's Equation 1/2
//! analyses. It verifies, per program point:
//!
//! - **`WaitNeverJoined`** — every `WaitBarrier` is reachable by a
//!   matching `JoinBarrier` (or an explicit `CancelBarrier`: dynamic
//!   deconfliction §4.3 intentionally leaves waits whose barrier was
//!   cancelled on the same path, which the hardware releases through).
//!   A wait with *no* reaching join/rejoin/cancel on *any* path is a
//!   structurally corrupt placement.
//! - **`RejoinWhileJoined`** — no barrier register is re-joined at a
//!   point where it is still joined on *every* incoming path: a
//!   `RejoinBarrier` must follow a `WaitBarrier`/`CancelBarrier` (or a
//!   call that performs one) on at least one path, otherwise the rejoin
//!   re-arms a barrier that was never released.
//! - **`UnresolvedConflict`** — deconfliction left no crossing
//!   (non-nested) barrier pairs behind, per §4.3's conflict criterion.
//! - **`ConvergenceOpInMeld`** — no convergence-sensitive instruction
//!   ([`Inst::convergence_sensitive`]: votes, `syncthreads`, calls,
//!   atomics) sits inside a melded (`meld_*`-labelled) block, where it
//!   would execute under merged per-arm predicates with a convergence
//!   state the original program never had. Barrier *ops* are exempt —
//!   the reconvergence passes run after melding and place their
//!   join/wait protocol at the melded block by design.
//!
//! The analyses are *module-aware*: interprocedural SR (§4.4) joins in
//! the caller and waits at the callee entry, so barrier state is
//! propagated from call sites into callee entries (union over call
//! sites, fixpoint over the call graph — recursion converges because
//! the lattice only grows), and calls transfer the callee's transitive
//! join/wait effects back into the caller.
//!
//! Run via [`lint_module`] (any module), [`lint_compiled`] (pipeline
//! output, with speculative-barrier attribution for severities), the
//! [`crate::pipeline::CompileOptions::lint`] pipeline stage, or the
//! `specrecon lint` CLI subcommand.

use crate::pipeline::Compiled;
use simt_analysis::{
    find_conflicts_with, solve, BitSet, DataflowProblem, Direction, FunctionAnalyses,
};
use simt_ir::{BarrierId, BarrierOp, BlockId, FuncId, FuncKind, FuncRef, Function, Inst, Module};
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// Suspicious but not known-broken (e.g. a crossing barrier pair not
    /// attributable to the speculative passes).
    Warning,
    /// A structural barrier-safety violation.
    Error,
}

/// Which rule produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintRule {
    /// A `WaitBarrier` no join (or cancel) can reach on any path.
    WaitNeverJoined,
    /// A `RejoinBarrier` of a barrier still joined on every path.
    RejoinWhileJoined,
    /// A crossing (non-nested) barrier pair survived deconfliction.
    UnresolvedConflict,
    /// A convergence-sensitive instruction inside a melded (`meld_*`)
    /// block.
    ConvergenceOpInMeld,
}

impl fmt::Display for LintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintRule::WaitNeverJoined => write!(f, "wait-never-joined"),
            LintRule::RejoinWhileJoined => write!(f, "rejoin-while-joined"),
            LintRule::UnresolvedConflict => write!(f, "unresolved-conflict"),
            LintRule::ConvergenceOpInMeld => write!(f, "convergence-op-in-meld"),
        }
    }
}

/// One lint finding, anchored to a program point.
#[derive(Clone, Debug)]
pub struct LintFinding {
    /// Severity.
    pub severity: LintSeverity,
    /// The rule that fired.
    pub rule: LintRule,
    /// Name of the function containing the finding.
    pub function: String,
    /// Block containing the finding.
    pub block: BlockId,
    /// Instruction index within the block, when the finding is
    /// instruction-anchored.
    pub inst: Option<usize>,
    /// The barrier register involved, when exactly one is.
    pub barrier: Option<BarrierId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            LintSeverity::Warning => "warning",
            LintSeverity::Error => "error",
        };
        write!(f, "{sev}[{}] @{}/{}", self.rule, self.function, self.block)?;
        if let Some(i) = self.inst {
            write!(f, ":{i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Transitive syntactic barrier effects per function: which barriers a
/// call to the function may join (leave joined) or clear (wait/cancel),
/// including through nested calls.
struct Summaries {
    domain: usize,
    /// Barriers the function (or its callees) may join or rejoin.
    gens: Vec<BitSet>,
    /// Barriers the function (or its callees) may wait on or cancel.
    clears: Vec<BitSet>,
}

fn call_target(inst: &Inst) -> Option<FuncId> {
    match inst {
        Inst::Call { func: FuncRef::Id(id), .. } => Some(*id),
        _ => None,
    }
}

fn compute_summaries(module: &Module) -> Summaries {
    let domain = module.functions.iter().map(|(_, f)| f.num_barriers).max().unwrap_or(0);
    let n = module.functions.len();
    let mut gens = vec![BitSet::new(domain); n];
    let mut clears = vec![BitSet::new(domain); n];
    let mut changed = true;
    while changed {
        changed = false;
        for (fid, func) in module.functions.iter() {
            let mut g = gens[fid.index()].clone();
            let mut c = clears[fid.index()].clone();
            for (_, block) in func.blocks.iter() {
                for inst in &block.insts {
                    match inst {
                        Inst::Barrier(op) => match op {
                            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                                g.insert(b.index());
                            }
                            BarrierOp::Wait(b) | BarrierOp::Cancel(b) => {
                                c.insert(b.index());
                            }
                            // A copy can leave the destination joined.
                            BarrierOp::Copy { dst, .. } => {
                                g.insert(dst.index());
                            }
                            BarrierOp::ArrivedCount { .. } => {}
                        },
                        _ => {
                            if let Some(callee) = call_target(inst) {
                                g.union_with(&gens[callee.index()]);
                                c.union_with(&clears[callee.index()]);
                            }
                        }
                    }
                }
            }
            changed |= gens[fid.index()] != g;
            changed |= clears[fid.index()] != c;
            gens[fid.index()] = g;
            clears[fid.index()] = c;
        }
    }
    Summaries { domain, gens, clears }
}

/// Which of the two forward may-planes a flow problem tracks.
#[derive(Clone, Copy, PartialEq)]
enum Plane {
    /// Bit set ⇔ some path reaches the point with the barrier
    /// *established* (joined, rejoined, or explicitly cancelled).
    MayEstablished,
    /// Bit set ⇔ some path reaches the point with the barrier *not
    /// joined* (its complement is must-joined).
    MayUnjoined,
}

fn step(plane: Plane, sums: &Summaries, inst: &Inst, state: &mut BitSet) {
    match inst {
        Inst::Barrier(op) => match (plane, op) {
            (Plane::MayEstablished, BarrierOp::Join(b) | BarrierOp::Rejoin(b)) => {
                state.insert(b.index());
            }
            // An explicit cancel establishes the barrier protocol on this
            // path (dynamic deconfliction cancels before a foreign wait);
            // a wait consumes it.
            (Plane::MayEstablished, BarrierOp::Cancel(b)) => {
                state.insert(b.index());
            }
            (Plane::MayEstablished, BarrierOp::Wait(b)) => {
                state.remove(b.index());
            }
            (Plane::MayUnjoined, BarrierOp::Join(b) | BarrierOp::Rejoin(b)) => {
                state.remove(b.index());
            }
            (Plane::MayUnjoined, BarrierOp::Wait(b) | BarrierOp::Cancel(b)) => {
                state.insert(b.index());
            }
            (_, BarrierOp::Copy { dst, src }) => {
                if state.contains(src.index()) {
                    state.insert(dst.index());
                } else {
                    state.remove(dst.index());
                }
            }
            (_, BarrierOp::ArrivedCount { .. }) => {}
        },
        _ => {
            if let Some(callee) = call_target(inst) {
                // Over-approximate both planes across the call: the callee
                // may add joined-ness (its joins) and may add unjoined-ness
                // (its waits/cancels); bits are never killed because some
                // callee path may leave them untouched.
                match plane {
                    Plane::MayEstablished => {
                        state.union_with(&sums.gens[callee.index()]);
                        state.union_with(&sums.clears[callee.index()]);
                    }
                    Plane::MayUnjoined => {
                        state.union_with(&sums.clears[callee.index()]);
                    }
                }
            }
        }
    }
}

struct FlowProblem<'a> {
    func: &'a Function,
    sums: &'a Summaries,
    boundary: BitSet,
    plane: Plane,
}

impl DataflowProblem for FlowProblem<'_> {
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn domain_size(&self) -> usize {
        self.sums.domain
    }
    fn boundary(&self) -> BitSet {
        self.boundary.clone()
    }
    fn transfer(&self, block: BlockId, input: &BitSet) -> BitSet {
        let mut state = input.clone();
        for inst in &self.func.blocks[block].insts {
            step(self.plane, self.sums, inst, &mut state);
        }
        state
    }
}

/// Lints an arbitrary module. Flow findings are errors; conflict pairs
/// are warnings (without pass reports the lint cannot tell speculative
/// barriers from nested-by-construction ones).
pub fn lint_module(module: &Module) -> Vec<LintFinding> {
    let mut views = vec![FunctionAnalyses::default(); module.functions.len()];
    lint_with_spec(module, &mut views, |_, _, _| LintSeverity::Warning)
}

/// Lints pipeline output. Conflict pairs involving a barrier the
/// speculative passes created are errors — deconfliction (§4.3) must
/// not leave aliased PDOM/SR pairs behind. When barrier allocation has
/// renumbered registers the pass reports refer to pre-renaming ids and
/// recycling makes ranges of unrelated barriers share a register, so
/// attribution is lost and surviving conflicts are reported as
/// warnings only (genuine speculative conflicts were already rejected
/// pre-allocation, when deconfliction ran). It reads the analysis views
/// the passes kept, so a CFG they already analysed is not analysed again.
pub fn lint_compiled(compiled: &Compiled) -> Vec<LintFinding> {
    let renumbered = compiled.barrier_alloc.is_some();
    let spec: Vec<(FuncId, Vec<BarrierId>)> = compiled
        .reports
        .iter()
        .map(|(id, r)| {
            let mut bars = r.speculative.barriers();
            bars.extend(r.interproc.iter().map(|ir| ir.barrier));
            (*id, bars)
        })
        .collect();
    lint_with_spec(&compiled.module, &mut compiled.views.borrow_mut(), |fid, a, b| {
        let is_spec =
            spec.iter().any(|(id, bars)| *id == fid && (bars.contains(&a) || bars.contains(&b)));
        if is_spec && !renumbered {
            LintSeverity::Error
        } else {
            LintSeverity::Warning
        }
    })
}

fn lint_with_spec(
    module: &Module,
    views: &mut [FunctionAnalyses],
    conflict_severity: impl Fn(FuncId, BarrierId, BarrierId) -> LintSeverity,
) -> Vec<LintFinding> {
    let sums = compute_summaries(module);
    let nf = module.functions.len();

    // Entry boundaries per function and plane. Kernels (and device
    // functions without call sites, linted standalone) start with nothing
    // joined; called device functions accumulate the union of their call
    // sites' states below.
    let mut has_call_site = vec![false; nf];
    let blocks = module.functions.iter().flat_map(|(_, f)| f.blocks.iter());
    for callee in blocks.flat_map(|(_, b)| &b.insts).filter_map(call_target) {
        has_call_site[callee.index()] = true;
    }
    // `entries[p][f]`: function `f`'s entry boundary in plane `planes[p]`.
    let planes = [Plane::MayEstablished, Plane::MayUnjoined];
    let mut entries = [vec![BitSet::new(sums.domain); nf], vec![BitSet::new(sums.domain); nf]];
    for (fid, func) in module.functions.iter() {
        if func.kind == FuncKind::Kernel || !has_call_site[fid.index()] {
            entries[1][fid.index()] = BitSet::full(sums.domain);
        }
    }
    let flow = |fid: FuncId, func, p: usize, entries: &[Vec<BitSet>; 2]| FlowProblem {
        func,
        sums: &sums,
        boundary: entries[p][fid.index()].clone(),
        plane: planes[p],
    };

    // Call-graph fixpoint: push the state just before each call into the
    // callee's entry boundary. Union-only, so it terminates (recursion
    // included).
    let mut changed = true;
    while changed {
        changed = false;
        for (fid, func) in module.functions.iter() {
            for p in 0..planes.len() {
                let result = solve(func, &mut views[fid.index()], &flow(fid, func, p, &entries));
                for (bid, block) in func.blocks.iter() {
                    if !result.reachable.contains(bid.index()) {
                        continue;
                    }
                    let mut state = result.entry[bid].clone();
                    for inst in &block.insts {
                        if let Some(callee) = call_target(inst) {
                            changed |= entries[p][callee.index()].union_with(&state);
                        }
                        step(planes[p], &sums, inst, &mut state);
                    }
                }
            }
        }
    }

    // Findings pass: re-solve each function with the converged boundaries
    // and check every barrier instruction.
    let mut findings = Vec::new();
    for (fid, func) in module.functions.iter() {
        let fa = &mut views[fid.index()];
        let est = solve(func, fa, &flow(fid, func, 0, &entries));
        let unj = solve(func, fa, &flow(fid, func, 1, &entries));
        for (bid, block) in func.blocks.iter() {
            if !est.reachable.contains(bid.index()) {
                continue;
            }
            let mut s_est = est.entry[bid].clone();
            let mut s_unj = unj.entry[bid].clone();
            let in_meld = block.label.as_deref().is_some_and(|l| l.starts_with("meld_"));
            for (i, inst) in block.insts.iter().enumerate() {
                // Convergence *barrier* ops are exempt: the reconvergence
                // passes run after melding and legitimately anchor their
                // join/wait protocol at the melded block (it is the
                // divergent branch's ipdom). Everything else
                // convergence-sensitive was illegally melded.
                if in_meld && inst.convergence_sensitive() && !matches!(inst, Inst::Barrier(_)) {
                    findings.push(LintFinding {
                        severity: LintSeverity::Error,
                        rule: LintRule::ConvergenceOpInMeld,
                        function: func.name.clone(),
                        block: bid,
                        inst: Some(i),
                        barrier: None,
                        message: "convergence-sensitive instruction inside a melded block \
                                  executes under merged per-arm predicates"
                            .to_string(),
                    });
                }
                match inst {
                    Inst::Barrier(BarrierOp::Wait(b)) if !s_est.contains(b.index()) => {
                        findings.push(LintFinding {
                            severity: LintSeverity::Error,
                            rule: LintRule::WaitNeverJoined,
                            function: func.name.clone(),
                            block: bid,
                            inst: Some(i),
                            barrier: Some(*b),
                            message: format!(
                                "wait {b} is reached by no join (or cancel) of {b} on any path"
                            ),
                        });
                    }
                    Inst::Barrier(BarrierOp::Rejoin(b)) if !s_unj.contains(b.index()) => {
                        findings.push(LintFinding {
                            severity: LintSeverity::Error,
                            rule: LintRule::RejoinWhileJoined,
                            function: func.name.clone(),
                            block: bid,
                            inst: Some(i),
                            barrier: Some(*b),
                            message: format!(
                                "rejoin {b} executes while {b} is still joined on every path \
                                 (no wait or cancel released it)"
                            ),
                        });
                    }
                    _ => {}
                }
                step(Plane::MayEstablished, &sums, inst, &mut s_est);
                step(Plane::MayUnjoined, &sums, inst, &mut s_unj);
            }
        }
        for c in find_conflicts_with(func, fa) {
            findings.push(LintFinding {
                severity: conflict_severity(fid, c.a, c.b),
                rule: LintRule::UnresolvedConflict,
                function: func.name.clone(),
                block: func.entry,
                inst: None,
                barrier: None,
                message: format!(
                    "barriers {} and {} have crossing joined ranges (§4.3 conflict); \
                     deconfliction should have resolved this pair",
                    c.a, c.b
                ),
            });
        }
    }
    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    findings
}

/// Convenience: the error-severity findings of [`lint_compiled`],
/// rendered — what the pipeline's lint stage reports on failure.
pub fn lint_errors(compiled: &Compiled) -> Vec<String> {
    errors_of(&lint_compiled(compiled))
}

/// The error-severity findings among `findings`, rendered.
pub(crate) fn errors_of(findings: &[LintFinding]) -> Vec<String> {
    findings.iter().filter(|f| f.severity == LintSeverity::Error).map(|f| f.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};
    use simt_ir::parse_module;

    const LOOPY: &str = r#"
kernel @k(params=0, regs=6, barriers=0, entry=bb0) {
  predict bb0 -> label L1
bb0:
  %r0 = special.tid
  %r2 = mov 0
  %r5 = mov 0
  jmp bb1
bb1:
  %r1 = rng.unit
  %r3 = lt %r1, 0.2f
  brdiv %r3, bb2, bb3
bb2 (label=L1, roi):
  work 40
  %r5 = add %r5, 1
  jmp bb3
bb3:
  %r2 = add %r2, 1
  %r3 = lt %r2, 12
  brdiv %r3, bb1, bb4
bb4:
  store global[%r0], %r5
  exit
}
"#;

    #[test]
    fn pipeline_output_is_clean() {
        let m = parse_module(LOOPY).unwrap();
        for opts in [
            CompileOptions::baseline(),
            CompileOptions::speculative(),
            CompileOptions {
                deconflict: crate::deconflict::DeconflictMode::Static,
                ..CompileOptions::default()
            },
        ] {
            let c = compile(&m, &opts).unwrap();
            let errors = lint_errors(&c);
            assert!(errors.is_empty(), "unexpected lint errors: {errors:?}");
        }
    }

    #[test]
    fn orphan_wait_is_flagged() {
        let src = r#"
kernel @k(params=0, regs=1, barriers=1, entry=bb0) {
bb0:
  join b0
  jmp bb1
bb1:
  wait b0
  exit
}
"#;
        let m = parse_module(src).unwrap();
        assert!(lint_module(&m).is_empty());
        // Corrupt: delete the join.
        let mut bad = m.clone();
        let f = &mut bad.functions[simt_ir::FuncId(0)];
        f.blocks[BlockId(0)].insts.clear();
        let findings = lint_module(&bad);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::WaitNeverJoined);
        assert_eq!(findings[0].severity, LintSeverity::Error);
    }

    #[test]
    fn rejoin_without_release_is_flagged() {
        let src = r#"
kernel @k(params=0, regs=1, barriers=1, entry=bb0) {
bb0:
  join b0
  rejoin b0
  wait b0
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let findings = lint_module(&m);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, LintRule::RejoinWhileJoined);
    }

    #[test]
    fn legit_wait_rejoin_loop_is_clean() {
        let src = r#"
kernel @k(params=0, regs=2, barriers=1, entry=bb0) {
bb0:
  join b0
  jmp bb1
bb1:
  wait b0
  rejoin b0
  %r0 = add %r0, 1
  %r1 = lt %r0, 4
  br %r1, bb1, bb2
bb2:
  cancel b0
  exit
}
"#;
        let m = parse_module(src).unwrap();
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn crossing_pair_is_reported() {
        let src = r#"
kernel @k(params=0, regs=4, barriers=2, entry=bb0) {
bb0:
  join b0
  jmp bb1
bb1:
  %r0 = rng.unit
  %r1 = lt %r0, 0.3f
  join b1
  brdiv %r1, bb2, bb3
bb2:
  wait b0
  rejoin b0
  jmp bb3
bb3:
  wait b1
  %r2 = add %r2, 1
  %r1 = lt %r2, 10
  br %r1, bb1, bb4
bb4:
  cancel b0
  exit
}
"#;
        let m = parse_module(src).unwrap();
        let findings = lint_module(&m);
        assert!(findings.iter().any(|f| f.rule == LintRule::UnresolvedConflict));
        // Without pass reports the pair is only a warning.
        assert!(
            findings
                .iter()
                .all(|f| f.severity == LintSeverity::Warning
                    || f.rule != LintRule::UnresolvedConflict)
        );
    }

    #[test]
    fn interprocedural_wait_at_callee_entry_is_clean() {
        // §4.4 shape: join in the caller, wait at the callee entry.
        let src = r#"
kernel @k(params=0, regs=2, barriers=1, entry=bb0) {
bb0:
  join b0
  call @f()
  call @f()
  exit
}

device @f(params=0, regs=1, barriers=1, entry=bb0) {
bb0:
  wait b0
  ret
}
"#;
        let mut m = parse_module(src).unwrap();
        m.resolve_calls().unwrap();
        let findings = lint_module(&m);
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn rejoin_after_call_that_waits_is_clean() {
        // §4.4: rejoin in the caller after a call whose callee waits.
        let src = r#"
kernel @k(params=0, regs=2, barriers=1, entry=bb0) {
bb0:
  join b0
  call @f()
  rejoin b0
  call @f()
  exit
}

device @f(params=0, regs=1, barriers=1, entry=bb0) {
bb0:
  wait b0
  ret
}
"#;
        let mut m = parse_module(src).unwrap();
        m.resolve_calls().unwrap();
        let findings = lint_module(&m);
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn display_formats_anchor() {
        let f = LintFinding {
            severity: LintSeverity::Error,
            rule: LintRule::WaitNeverJoined,
            function: "k".into(),
            block: BlockId(2),
            inst: Some(1),
            barrier: Some(BarrierId(0)),
            message: "m".into(),
        };
        let s = f.to_string();
        assert!(s.contains("error[wait-never-joined]"));
        assert!(s.contains("@k/bb2:1"));
    }
}
