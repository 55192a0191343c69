//! Control-flow melding: the DARM-style divergence repair.
//!
//! Speculative Reconvergence delays the reconvergence point so lanes
//! *taking the same path* at different times can share it. It structurally
//! cannot help when the divergent siblings of one branch *contain* common
//! work: the lanes are on different paths, so no reconvergence schedule
//! makes them share the duplicated instructions. Control-flow melding
//! (Saumya, Sundararajah, Kulkarni — "DARM: control-flow melding for SIMT
//! thread divergence reduction") repairs exactly that shape: isomorphic or
//! alignable instruction runs of an if/else diamond's arms are hoisted
//! into one *melded* block that every lane executes together, with `sel`
//! guards routing each lane its own arm's operands and results.
//!
//! The pass is deliberately a sibling of SR on the same IR and analyses:
//!
//! - diamonds come from [`simt_analysis::find_diamonds`];
//! - profitability uses the same [`LatencyModel`] cost estimates as the
//!   §4.5 detector (and, profile-guided, the same per-block lost-lane
//!   attribution);
//! - the residual divergent prologues/epilogues it leaves behind are
//!   ordinary divergent regions, repaired by PDOM or SR downstream (the
//!   pipeline runs melding *first*, so the PDOM pass naturally places a
//!   reconvergence barrier at the melded block, and SR detection sees the
//!   residual CFG).
//!
//! **Legality.** Only mask-predicatable instructions may be melded. An
//! instruction whose result or side effect depends on the convergence
//! state or on cross-lane ordering ([`Inst::convergence_sensitive`]:
//! votes, `syncthreads`, barrier ops, calls, atomics) never enters a
//! melded run — it stays in its divergent arm. Since every lane executes
//! exactly one arm of a diamond, a melded instruction executes once per
//! lane with that lane's own arm's operands, so per-lane semantics
//! (including faults such as division by zero) are preserved exactly; the
//! `sel` writeback keeps the non-executing arm's registers untouched.
//! The barrier-safety lint enforces this invariant post-hoc: a
//! convergence-sensitive instruction inside a `meld_*`-labelled block is
//! an error ([`crate::lint::LintRule::ConvergenceOpInMeld`]).

use simt_analysis::{find_diamonds, find_diamonds_with, Diamond, FunctionAnalyses};
use simt_ir::{BlockId, FuncId, Function, Inst, Operand, Reg, Terminator};
use simt_sim::{LatencyModel, Profile};

/// Tuning knobs for the melding pass.
#[derive(Clone, Debug)]
pub struct MeldOptions {
    /// Candidates scoring below this are rejected (same convention as
    /// [`crate::DetectOptions::min_score`]: `>= 1.0` roughly means the
    /// de-duplicated work outweighs the guard overhead).
    pub min_score: f64,
    /// Minimum number of aligned instruction pairs worth restructuring
    /// the diamond for.
    pub min_aligned: usize,
    /// Cost model used for the static profitability estimate.
    pub latency: LatencyModel,
}

impl Default for MeldOptions {
    fn default() -> Self {
        Self { min_score: 1.0, min_aligned: 2, latency: LatencyModel::default() }
    }
}

/// A profitable, legal meld opportunity: the best aligned window of one
/// diamond's arms.
#[derive(Clone, Debug)]
pub struct MeldCandidate {
    /// The diamond being melded.
    pub diamond: Diamond,
    /// First aligned instruction index in the then-arm.
    pub then_start: usize,
    /// First aligned instruction index in the else-arm.
    pub else_start: usize,
    /// Number of aligned instruction pairs.
    pub len: usize,
    /// `sel` guards the meld will insert (operand routing + writebacks).
    pub guards: usize,
    /// Estimated issue cycles de-duplicated per diamond execution.
    pub saved_cost: u64,
    /// Benefit score: saved cost over guard overhead.
    pub score: f64,
}

/// One applied meld, for reports.
#[derive(Clone, Debug)]
pub struct MeldedRegion {
    /// Block whose divergent branch fed the diamond.
    pub branch: BlockId,
    /// The new `meld_*` block both arms now funnel through.
    pub meld_block: BlockId,
    /// Aligned instruction pairs melded.
    pub aligned: usize,
    /// `sel` guards inserted.
    pub guards: usize,
    /// Residual (prologue, epilogue) instruction counts of the then-arm.
    pub then_residual: (usize, usize),
    /// Residual (prologue, epilogue) instruction counts of the else-arm.
    pub else_residual: (usize, usize),
    /// The candidate's score.
    pub score: f64,
}

/// What the melding pass did to one function.
#[derive(Clone, Debug, Default)]
pub struct MeldReport {
    /// Applied melds.
    pub melded: Vec<MeldedRegion>,
    /// Diamonds found but not melded (illegal, unalignable, or
    /// unprofitable).
    pub rejected: usize,
}

/// Guards needed to meld instruction pair `(a, e)` into one predicated
/// instruction, or `None` when the pair cannot be legally aligned.
///
/// Identical pairs meld as-is (0 guards). Same-shape pairs need one `sel`
/// per differing operand position, plus two writeback `sel`s when the
/// destinations differ. Convergence-sensitive instructions never align.
fn pair_guards(a: &Inst, e: &Inst) -> Option<usize> {
    if a.convergence_sensitive() || e.convergence_sensitive() {
        return None;
    }
    if a == e {
        return Some(0);
    }
    let shape_ok = match (a, e) {
        (Inst::Bin { op: x, .. }, Inst::Bin { op: y, .. }) => x == y,
        (Inst::Un { op: x, .. }, Inst::Un { op: y, .. }) => x == y,
        (Inst::Mov { .. }, Inst::Mov { .. }) => true,
        (Inst::Sel { .. }, Inst::Sel { .. }) => true,
        (Inst::Load { space: x, .. }, Inst::Load { space: y, .. }) => x == y,
        (Inst::Store { space: x, .. }, Inst::Store { space: y, .. }) => x == y,
        (Inst::Special { kind: x, .. }, Inst::Special { kind: y, .. }) => x == y,
        (Inst::Rng { kind: x, .. }, Inst::Rng { kind: y, .. }) => x == y,
        (Inst::SeedRng { .. }, Inst::SeedRng { .. }) => true,
        // `work` and `nop` carry no operands to guard; they only meld as
        // identical pairs (handled above).
        _ => false,
    };
    if !shape_ok {
        return None;
    }
    let mut sels = a.uses().iter().zip(e.uses().iter()).filter(|(x, y)| x != y).count();
    if a.def() != e.def() && a.def().is_some() {
        sels += 2;
    }
    Some(sels)
}

/// Finds the best-scoring aligned window of one diamond's arms, if a
/// legal one of at least `min_aligned` pairs exists.
fn best_window(func: &Function, d: Diamond, opts: &MeldOptions) -> Option<MeldCandidate> {
    let Terminator::Branch { cond, .. } = func.blocks[d.branch].term else { return None };
    // The guards re-read the branch condition inside the melded block, so
    // it must be a register neither arm redefines.
    let Operand::Reg(cr) = cond else { return None };
    let t = &func.blocks[d.then_arm].insts;
    let e = &func.blocks[d.else_arm].insts;
    if t.iter().chain(e.iter()).any(|i| i.def() == Some(cr)) {
        return None;
    }
    let lat = &opts.latency;
    let mut best: Option<MeldCandidate> = None;
    for i in 0..t.len() {
        for j in 0..e.len() {
            // Greedy extension of the aligned run starting at (i, j).
            let (mut len, mut guards, mut saved) = (0usize, 0usize, 0u64);
            while i + len < t.len() && j + len < e.len() {
                let Some(g) = pair_guards(&t[i + len], &e[j + len]) else { break };
                guards += g;
                // Executing the pair once instead of twice saves the
                // cheaper side's issue cost.
                saved += u64::from(lat.issue_cost(&t[i + len]).min(lat.issue_cost(&e[j + len])));
                len += 1;
            }
            if len < opts.min_aligned {
                continue;
            }
            let overhead = guards as u64 * u64::from(lat.alu) + 2 * u64::from(lat.control);
            let score = saved as f64 / (overhead + 1) as f64;
            let better = match &best {
                Some(b) => score > b.score,
                None => true,
            };
            if better {
                best = Some(MeldCandidate {
                    diamond: d,
                    then_start: i,
                    else_start: j,
                    len,
                    guards,
                    saved_cost: saved,
                    score,
                });
            }
        }
    }
    best
}

/// Detects every legal meld candidate in `func` (best window per
/// diamond), unfiltered by score.
pub fn detect_melds(func: &Function, opts: &MeldOptions) -> Vec<MeldCandidate> {
    find_diamonds(func).into_iter().filter_map(|d| best_window(func, d, opts)).collect()
}

/// Emits `sel cond, t, e` into `out` when the operands differ, returning
/// the operand the melded instruction should read.
fn sel_operand(
    func: &mut Function,
    cond: Operand,
    t: Operand,
    e: Operand,
    out: &mut Vec<Inst>,
) -> Operand {
    if t == e {
        return t;
    }
    let tmp = func.alloc_reg();
    out.push(Inst::Sel { dst: tmp, cond, if_true: t, if_false: e });
    Operand::Reg(tmp)
}

/// Emits the melded core instruction plus writeback guards: when the
/// arms' destinations differ, the core writes a fresh temporary and two
/// `sel`s commit it to the owning arm's register only (the other arm's
/// lanes keep their previous value, exactly as if they never executed
/// the instruction).
fn write_melded(
    func: &mut Function,
    cond: Operand,
    dst_t: Reg,
    dst_e: Reg,
    out: &mut Vec<Inst>,
    make: impl FnOnce(Reg) -> Inst,
) {
    if dst_t == dst_e {
        out.push(make(dst_t));
        return;
    }
    let m = func.alloc_reg();
    out.push(make(m));
    out.push(Inst::Sel {
        dst: dst_t,
        cond,
        if_true: Operand::Reg(m),
        if_false: Operand::Reg(dst_t),
    });
    out.push(Inst::Sel {
        dst: dst_e,
        cond,
        if_true: Operand::Reg(dst_e),
        if_false: Operand::Reg(m),
    });
}

/// Melds one aligned instruction pair into `out`.
///
/// # Panics
///
/// Panics if the pair is not alignable — callers must have validated it
/// with [`pair_guards`].
fn meld_pair(func: &mut Function, cond: Operand, a: &Inst, e: &Inst, out: &mut Vec<Inst>) {
    if a == e {
        out.push(a.clone());
        return;
    }
    match (a, e) {
        (
            Inst::Bin { op, dst: dt, lhs: tl, rhs: tr },
            Inst::Bin { dst: de, lhs: el, rhs: er, .. },
        ) => {
            let lhs = sel_operand(func, cond, *tl, *el, out);
            let rhs = sel_operand(func, cond, *tr, *er, out);
            write_melded(func, cond, *dt, *de, out, |dst| Inst::Bin { op: *op, dst, lhs, rhs });
        }
        (Inst::Un { op, dst: dt, src: ts }, Inst::Un { dst: de, src: es, .. }) => {
            let src = sel_operand(func, cond, *ts, *es, out);
            write_melded(func, cond, *dt, *de, out, |dst| Inst::Un { op: *op, dst, src });
        }
        (Inst::Mov { dst: dt, src: ts }, Inst::Mov { dst: de, src: es }) => {
            let src = sel_operand(func, cond, *ts, *es, out);
            write_melded(func, cond, *dt, *de, out, |dst| Inst::Mov { dst, src });
        }
        (
            Inst::Sel { dst: dt, cond: tc, if_true: tt, if_false: tf },
            Inst::Sel { dst: de, cond: ec, if_true: et, if_false: ef },
        ) => {
            let c2 = sel_operand(func, cond, *tc, *ec, out);
            let it = sel_operand(func, cond, *tt, *et, out);
            let inf = sel_operand(func, cond, *tf, *ef, out);
            write_melded(func, cond, *dt, *de, out, |dst| Inst::Sel {
                dst,
                cond: c2,
                if_true: it,
                if_false: inf,
            });
        }
        (Inst::Load { dst: dt, space, addr: ta }, Inst::Load { dst: de, addr: ea, .. }) => {
            let addr = sel_operand(func, cond, *ta, *ea, out);
            write_melded(func, cond, *dt, *de, out, |dst| Inst::Load { dst, space: *space, addr });
        }
        (Inst::Store { space, addr: ta, value: tv }, Inst::Store { addr: ea, value: ev, .. }) => {
            let addr = sel_operand(func, cond, *ta, *ea, out);
            let value = sel_operand(func, cond, *tv, *ev, out);
            out.push(Inst::Store { space: *space, addr, value });
        }
        (Inst::Special { dst: dt, kind }, Inst::Special { dst: de, .. }) => {
            write_melded(func, cond, *dt, *de, out, |dst| Inst::Special { dst, kind: *kind });
        }
        (Inst::Rng { dst: dt, kind }, Inst::Rng { dst: de, .. }) => {
            write_melded(func, cond, *dt, *de, out, |dst| Inst::Rng { dst, kind: *kind });
        }
        (Inst::SeedRng { src: ts }, Inst::SeedRng { src: es }) => {
            let src = sel_operand(func, cond, *ts, *es, out);
            out.push(Inst::SeedRng { src });
        }
        (a, e) => panic!("meld_pair on unalignable pair {a:?} / {e:?}"),
    }
}

/// A fresh `meld_<n>` label not already present in `func`.
fn next_meld_label(func: &Function) -> String {
    let mut n = 0;
    loop {
        let l = format!("meld_{n}");
        if func.block_by_label(&l).is_none() {
            return l;
        }
        n += 1;
    }
}

/// Rewrites one diamond per `cand`: arms are truncated to their residual
/// prologues and funnel into a new melded block; residual epilogues (if
/// any) re-diverge after it and rejoin at the original join.
fn apply_one(func: &mut Function, cand: &MeldCandidate) -> MeldedRegion {
    let d = cand.diamond;
    let Terminator::Branch { cond, .. } = func.blocks[d.branch].term else {
        unreachable!("diamond branch changed shape");
    };
    let t_insts = std::mem::take(&mut func.blocks[d.then_arm].insts);
    let e_insts = std::mem::take(&mut func.blocks[d.else_arm].insts);
    let t_roi = func.blocks[d.then_arm].roi;
    let e_roi = func.blocks[d.else_arm].roi;
    let (ti, ei, len) = (cand.then_start, cand.else_start, cand.len);

    let mut melded = Vec::new();
    for k in 0..len {
        meld_pair(func, cond, &t_insts[ti + k], &e_insts[ei + k], &mut melded);
    }

    let label = next_meld_label(func);
    let m_id = func.add_block(Some(label));
    func.blocks[m_id].insts = melded;
    func.blocks[m_id].roi = t_roi || e_roi;

    // Epilogues: residual per-arm tails re-diverge after the meld on the
    // same (arm-invariant) condition and rejoin at the original join —
    // the PDOM pass will reconverge them there.
    let t_epi = &t_insts[ti + len..];
    let e_epi = &e_insts[ei + len..];
    let mut epilogue_block = |insts: &[Inst], roi: bool, join: BlockId| -> BlockId {
        if insts.is_empty() {
            return join;
        }
        let b = func.add_block(None);
        func.blocks[b].insts = insts.to_vec();
        func.blocks[b].term = Terminator::Jump(join);
        func.blocks[b].roi = roi;
        b
    };
    let t2 = epilogue_block(t_epi, t_roi, d.join);
    let e2 = epilogue_block(e_epi, e_roi, d.join);
    func.blocks[m_id].term = if t2 == d.join && e2 == d.join {
        Terminator::Jump(d.join)
    } else {
        Terminator::Branch { cond, then_bb: t2, else_bb: e2, divergent: true }
    };

    // Prologues stay in the original arm blocks, which now feed the meld.
    func.blocks[d.then_arm].insts = t_insts[..ti].to_vec();
    func.blocks[d.then_arm].term = Terminator::Jump(m_id);
    func.blocks[d.else_arm].insts = e_insts[..ei].to_vec();
    func.blocks[d.else_arm].term = Terminator::Jump(m_id);

    MeldedRegion {
        branch: d.branch,
        meld_block: m_id,
        aligned: len,
        guards: cand.guards,
        then_residual: (ti, t_epi.len()),
        else_residual: (ei, e_epi.len()),
        score: cand.score,
    }
}

/// Applies the candidates scoring `min_score` or more; the other `diamonds` are rejected.
fn apply_filtered(
    func: &mut Function,
    opts: &MeldOptions,
    mut cands: Vec<MeldCandidate>,
    diamonds: usize,
) -> MeldReport {
    cands.retain(|c| c.score >= opts.min_score);
    // Candidates of distinct diamonds touch disjoint blocks, so they all
    // apply independently, in deterministic (branch-id) order.
    let mut report = MeldReport::default();
    for c in &cands {
        report.melded.push(apply_one(func, c));
    }
    report.rejected = diamonds - report.melded.len();
    report
}

/// Detects and applies every profitable meld in `func` using the static
/// cost model. Returns what was done.
pub fn apply_melds(
    func: &mut Function,
    fa: &mut FunctionAnalyses,
    opts: &MeldOptions,
) -> MeldReport {
    let diamonds = find_diamonds_with(func, fa);
    let cands = diamonds.iter().filter_map(|&d| best_window(func, d, opts)).collect();
    apply_filtered(func, opts, cands, diamonds.len())
}

/// Profile-guided [`apply_melds`]: rescales each candidate's score with
/// the measured per-block lost-lane attribution of a baseline profiling
/// run. A diamond whose arms lost no lane-cycles in practice (the branch
/// was warp-uniform, or never ran) is rejected regardless of its static
/// score; coverage weighting uses the same lane-entry normalization as
/// [`crate::autodetect::detect_profiled`].
pub fn apply_melds_profiled(
    func: &mut Function,
    func_id: FuncId,
    profile: &Profile,
    warp_width: usize,
    opts: &MeldOptions,
) -> MeldReport {
    let attribution = profile.attribution(warp_width, usize::MAX);
    let lost = |b: BlockId| -> u64 {
        attribution
            .iter()
            .find(|((f, blk), _)| *f == func_id && *blk == b)
            .map_or(0, |(_, s)| s.lost_lane_cycles(warp_width))
    };
    let diamonds = find_diamonds(func);
    let cands: Vec<MeldCandidate> = diamonds
        .iter()
        .filter_map(|&d| best_window(func, d, opts))
        .filter_map(|mut c| {
            let d = c.diamond;
            if lost(d.then_arm) + lost(d.else_arm) == 0 {
                return None;
            }
            let norm = profile.lane_entries(func_id, d.branch).max(1);
            let coverage = (profile.lane_entries(func_id, d.then_arm)
                + profile.lane_entries(func_id, d.else_arm)) as f64
                / norm as f64;
            c.score *= coverage;
            Some(c)
        })
        .collect();
    apply_filtered(func, opts, cands, diamonds.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{parse_module, verify_module, Module, Value};
    use simt_sim::{run, Launch, SimConfig};

    /// A loop whose divergent arms share an expensive common tail with
    /// arm-specific coefficients — the shape SR loses and melding wins.
    const DIAMOND_LOOP: &str = r#"
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r2 = mov 0
  %r5 = mov 0
  jmp bb1
bb1:
  %r1 = rng.unit
  %r3 = lt %r1, 0.3f
  brdiv %r3, bb2, bb3
bb2 (roi):
  work 40
  work 80
  %r6 = mul %r2, 3
  %r6 = add %r6, 1
  %r5 = add %r5, %r6
  jmp bb4
bb3 (roi):
  work 80
  %r6 = mul %r2, 5
  %r6 = add %r6, 2
  %r5 = add %r5, %r6
  jmp bb4
bb4:
  %r2 = add %r2, 1
  %r3 = lt %r2, 16
  brdiv %r3, bb1, bb5
bb5:
  store global[%r0], %r5
  exit
}
"#;

    fn kernel(src: &str) -> Module {
        parse_module(src).unwrap()
    }

    fn launch() -> Launch {
        let mut l = Launch::new("k", 4);
        l.global_mem = vec![Value::I64(0); 256];
        l
    }

    #[test]
    fn detects_the_common_tail() {
        let m = kernel(DIAMOND_LOOP);
        let f = m.functions.iter().next().unwrap().1;
        let cands = detect_melds(f, &MeldOptions::default());
        assert_eq!(cands.len(), 1);
        let c = &cands[0];
        // The aligned run is the 4-instruction tail (work 80 + mul + add
        // + accumulate); `work 40` stays as the then-prologue.
        assert_eq!(c.len, 4);
        assert_eq!(c.then_start, 1);
        assert_eq!(c.else_start, 0);
        assert!(c.score >= 1.0, "score {}", c.score);
    }

    #[test]
    fn meld_preserves_results_and_improves_efficiency() {
        use crate::pipeline::{compile, RepairStrategy};
        let m = kernel(DIAMOND_LOOP);
        let base = compile(&m, &RepairStrategy::Pdom.options()).unwrap();
        let meld = compile(&m, &RepairStrategy::Meld.options()).unwrap();
        assert_eq!(meld.reports[0].1.meld.melded.len(), 1);
        verify_module(&meld.module).unwrap();

        let cfg = SimConfig::default();
        let out_b = run(&base.module, &cfg, &launch()).unwrap();
        let out_m = run(&meld.module, &cfg, &launch()).unwrap();
        assert_eq!(out_b.global_mem, out_m.global_mem, "melding must not change results");
        assert!(
            out_m.metrics.simt_efficiency() > out_b.metrics.simt_efficiency(),
            "melded efficiency {} should beat PDOM {}",
            out_m.metrics.simt_efficiency(),
            out_b.metrics.simt_efficiency()
        );
        assert!(out_m.metrics.cycles < out_b.metrics.cycles);
    }

    #[test]
    fn melded_block_is_labelled_and_residuals_survive() {
        let m = kernel(DIAMOND_LOOP);
        let mut melded = m.clone();
        let id = melded.function_by_name("k").unwrap();
        let report = apply_melds(
            &mut melded.functions[id],
            &mut FunctionAnalyses::default(),
            &MeldOptions::default(),
        );
        let region = &report.melded[0];
        let f = &melded.functions[id];
        assert_eq!(f.blocks[region.meld_block].label.as_deref(), Some("meld_0"));
        assert_eq!(region.then_residual, (1, 0), "work 40 prologue stays divergent");
        assert_eq!(region.else_residual, (0, 0));
        // The then-prologue block still holds exactly its residual.
        assert_eq!(f.blocks[region.branch].term.successors().len(), 2);
    }

    #[test]
    fn condition_redefined_in_arm_rejects_the_diamond() {
        let src = r#"
kernel @k(params=0, regs=4, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.unit
  %r1 = lt %r0, 0.5f
  brdiv %r1, bb1, bb2
bb1:
  %r1 = mov 7
  work 50
  jmp bb3
bb2:
  %r1 = mov 9
  work 50
  jmp bb3
bb3:
  exit
}
"#;
        let m = kernel(src);
        let f = m.functions.iter().next().unwrap().1;
        assert!(
            detect_melds(f, &MeldOptions::default()).is_empty(),
            "arms redefining the branch condition must not meld"
        );
    }

    #[test]
    fn unprofitable_melds_are_rejected_by_score() {
        let src = r#"
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = rng.unit
  %r1 = lt %r0, 0.5f
  brdiv %r1, bb1, bb2
bb1:
  %r2 = add %r3, 1
  %r4 = add %r5, 2
  jmp bb3
bb2:
  %r3 = add %r2, 3
  %r5 = add %r4, 4
  jmp bb3
bb3:
  exit
}
"#;
        let m = kernel(src);
        let mut melded = m.clone();
        let id = melded.function_by_name("k").unwrap();
        // Two cheap ALU pairs needing 2 operand sels + 2 writebacks each:
        // the guards cost more than the de-duplication saves.
        let report = apply_melds(
            &mut melded.functions[id],
            &mut FunctionAnalyses::default(),
            &MeldOptions::default(),
        );
        assert!(report.melded.is_empty());
        assert_eq!(report.rejected, 1);
    }

    #[test]
    fn profiled_melding_rejects_uniform_branches() {
        // The branch condition is warp-uniform (same for every lane), so
        // the arms lose no lane cycles and the profiled pass skips the
        // meld the static pass would apply.
        let src = r#"
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.warp
  %r1 = lt %r0, 99
  brdiv %r1, bb1, bb2
bb1:
  work 40
  work 200
  %r5 = add %r5, 1
  jmp bb3
bb2:
  work 200
  %r5 = add %r5, 2
  jmp bb3
bb3:
  store global[%r0], %r5
  exit
}
"#;
        let m = kernel(src);
        let id = m.function_by_name("k").unwrap();
        let cfg = SimConfig { profile: true, ..SimConfig::default() };
        let mut l = Launch::new("k", 2);
        l.global_mem = vec![Value::I64(0); 256];
        let out = run(&m, &cfg, &l).unwrap();
        let profile = out.profile.unwrap();

        let mut statically = m.clone();
        let s = apply_melds(
            &mut statically.functions[id],
            &mut FunctionAnalyses::default(),
            &MeldOptions::default(),
        );
        assert_eq!(s.melded.len(), 1, "static model melds the shared tail");

        let mut profiled = m.clone();
        let p = apply_melds_profiled(
            &mut profiled.functions[id],
            id,
            &profile,
            32,
            &MeldOptions::default(),
        );
        assert!(p.melded.is_empty(), "no lost lanes -> no meld");
        assert_eq!(p.rejected, 1);
    }

    #[test]
    fn meld_handles_differing_destinations_with_writeback_guards() {
        // Arms compute into different registers; both are read after the
        // join, so the writeback sels must keep the non-owning arm's
        // register intact.
        let src = r#"
kernel @k(params=0, regs=8, barriers=0, entry=bb0) {
bb0:
  %r0 = special.tid
  %r2 = mov 100
  %r3 = mov 200
  %r1 = rng.unit
  %r4 = lt %r1, 0.5f
  brdiv %r4, bb1, bb2
bb1:
  work 90
  %r2 = mul %r0, 3
  jmp bb3
bb2:
  work 90
  %r3 = mul %r0, 5
  jmp bb3
bb3:
  %r5 = add %r2, %r3
  store global[%r0], %r5
  exit
}
"#;
        let m = kernel(src);
        let mut melded = m.clone();
        let id = melded.function_by_name("k").unwrap();
        let report = apply_melds(
            &mut melded.functions[id],
            &mut FunctionAnalyses::default(),
            &MeldOptions::default(),
        );
        assert_eq!(report.melded.len(), 1);
        assert!(report.melded[0].guards >= 2, "differing dsts need writebacks");
        verify_module(&melded).unwrap();
        let cfg = SimConfig::default();
        let base = run(&m, &cfg, &launch()).unwrap();
        let out = run(&melded, &cfg, &launch()).unwrap();
        assert_eq!(base.global_mem, out.global_mem);
    }
}
