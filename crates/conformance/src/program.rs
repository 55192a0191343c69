//! The generator's program genome.
//!
//! A [`ProgramSpec`] is a small, structured description of a divergent
//! kernel — a statement tree plus launch shape and `Predict`
//! annotations — from which [`crate::build::build_module`] constructs
//! well-formed IR. Generation is driven entirely by a `u64` seed
//! (deterministic, replayable), which also makes custom shrinking
//! possible: the shrinker mutates the spec, not raw IR.
//!
//! The distribution is biased toward the three shapes Speculative
//! Reconvergence targets (§2 of the paper): **Iteration Delay** (a
//! rarely-taken expensive branch inside a loop), **Loop Merge**
//! (data-dependent trip counts), and **Common Call** (an expensive
//! callee shared across branch sides).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which paper pattern a generated program is biased toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Expensive, data-dependent branch body inside a loop (Listing 1).
    IterationDelay,
    /// Loop with per-thread trip counts (Figure 2a).
    LoopMerge,
    /// Expensive call shared across both sides of a branch (Figure 2b).
    CommonCall,
    /// Free-form mix of the above ingredients.
    Mixed,
}

/// A branch condition, all warp-divergent in practice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// `rng_unit() < p/100` — independent per thread and per evaluation.
    RngLt(u8),
    /// Bit `k` of the thread id — divergent but launch-stable.
    TidBit(u8),
    /// Bit `k` of the running accumulator — data-dependent.
    AccBit(u8),
}

/// What an early loop escape does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Escape {
    /// Jump past the loop (an SR region escape edge).
    Break,
    /// Terminate the thread (exit-path cancellation).
    ThreadExit,
}

/// One statement of the generated program.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Synthetic work of the given cycle cost.
    Work(u32),
    /// `acc += k`.
    AccAdd(i64),
    /// `acc ^= k`.
    AccXor(i64),
    /// `acc ^= tid`.
    AccXorTid,
    /// `global[tid] = acc`.
    StoreAcc,
    /// `acc += global[tid]`.
    LoadMix,
    /// Folds a value whose *type* is drawn per thread and per launch
    /// seed into `acc`: `t = sel(rng_unit() < p/100, 0.5, 3)` is a float
    /// in some threads and an int in the rest, flows through `add`,
    /// `mul` and `lt`, and comes back as an integer (`ftoi`), so `acc`
    /// stays an int. Under a seed sweep the operand rows are mixed
    /// across seeds — the typed columns' per-slot path.
    TypeMix(u8),
    /// `atomic_add(global[num_threads + site], 1)`, result discarded —
    /// the final cell value is order-independent.
    AtomicBump(u8),
    /// Block-wide `syncthreads`; the generator only places this at the
    /// kernel's top level (uniform control).
    Sync,
    /// Call the shared `helper` callee, threading `acc` through it.
    CallShared,
    /// Two-sided divergent branch. `id` names the then-arm label `L<id>`.
    If {
        /// Branch condition.
        cond: Cond,
        /// Then-side statements (the labelled, ROI side).
        then_b: Vec<Stmt>,
        /// Else-side statements (may be empty).
        else_b: Vec<Stmt>,
        /// Construct id; the then-arm gets label `L<id>`.
        id: u32,
    },
    /// Counted loop. `id` names the header label `L<id>`.
    Loop {
        /// Trip count when `rng_trips` is false (1..=6).
        trips: u32,
        /// Per-thread random trip count in 1..=4 instead (divergent
        /// back edge — the Loop-Merge shape).
        rng_trips: bool,
        /// Optional early escape tested at the top of each iteration.
        early: Option<(Cond, Escape)>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Construct id; the header gets label `L<id>`.
        id: u32,
    },
}

/// The shared device callee, when the program has one.
#[derive(Clone, Debug, PartialEq)]
pub struct CalleeSpec {
    /// Callee body (never contains `Sync`, `CallShared`, or
    /// `ThreadExit` escapes).
    pub stmts: Vec<Stmt>,
    /// Bounded self-recursion depth, when present (1..=2).
    pub recursion: Option<u32>,
}

/// What a generated prediction points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredTarget {
    /// The label `L<id>` of an `If` then-arm or `Loop` header.
    Construct(u32),
    /// The shared callee's entry (§4.4 interprocedural SR).
    Callee,
}

/// One `Predict` annotation; the region always starts at the kernel
/// entry, like the paper's Listing 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredSpec {
    /// Reconvergence target.
    pub target: PredTarget,
    /// Soft-barrier threshold (§4.6); degenerate values (0, 1, or the
    /// warp width) exercise the hard-barrier fallback.
    pub threshold: Option<u32>,
}

/// A complete generated program: launch shape + statement tree +
/// predictions.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramSpec {
    /// The generator seed this spec was derived from (replay handle).
    pub seed: u64,
    /// Pattern bias used during generation.
    pub shape: Shape,
    /// Warps to launch (1..=3).
    pub warps: usize,
    /// Lanes per warp (4 or 8 — small widths exercise masks faster).
    pub warp_width: usize,
    /// The shared callee, when the program calls one.
    pub callee: Option<CalleeSpec>,
    /// Top-level statements.
    pub stmts: Vec<Stmt>,
    /// `Predict` annotations (0..=2; overlapping pairs exercise §6
    /// exclusive-prediction arbitration).
    pub predictions: Vec<PredSpec>,
}

struct Gen {
    rng: SmallRng,
    next_id: u32,
    has_callee: bool,
}

impl Gen {
    fn id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn cond(&mut self) -> Cond {
        // Biased 4/6 toward `RngLt`: the RNG stream is the only
        // launch-seed-dependent input, so these are the branches where a
        // seed sweep's instances disagree — the sub-cohort fork/merge
        // paths the grid's cohort twins exist to cross-check. `TidBit`
        // and `AccBit` stay in the mix for launch-stable and
        // data-dependent divergence.
        match self.rng.gen_range(0u32..6) {
            0..=3 => Cond::RngLt(self.rng.gen_range(15u32..60) as u8),
            4 => Cond::TidBit(self.rng.gen_range(0u32..3) as u8),
            _ => Cond::AccBit(self.rng.gen_range(0u32..4) as u8),
        }
    }

    fn leaf(&mut self, in_callee: bool) -> Stmt {
        match self.rng.gen_range(0u32..9) {
            0 | 1 => Stmt::Work(self.rng.gen_range(1u32..48)),
            2 => Stmt::AccAdd(self.rng.gen_range(1i64..100)),
            3 => Stmt::AccXor(self.rng.gen_range(1i64..256)),
            4 => Stmt::AccXorTid,
            5 => Stmt::StoreAcc,
            6 => Stmt::LoadMix,
            7 => Stmt::TypeMix(self.rng.gen_range(20u32..80) as u8),
            _ => {
                if in_callee {
                    Stmt::Work(self.rng.gen_range(1u32..24))
                } else {
                    Stmt::AtomicBump(self.rng.gen_range(0u32..4) as u8)
                }
            }
        }
    }

    /// A random statement; depth caps nesting, `top_level` gates `Sync`
    /// and `in_callee` gates calls/atomics/exits. Nesting runs to depth
    /// 3 so branches-in-branches (and branches inside data-dependent
    /// loops) are routine: nested divergence multiplies the sweep
    /// engine's sub-cohort classes, which is exactly the regime the
    /// grid's cohort twins need to stress.
    fn stmt(&mut self, depth: u32, top_level: bool, in_callee: bool) -> Stmt {
        let roll = self.rng.gen_range(0u32..100);
        if depth >= 3 || roll < 45 {
            return self.leaf(in_callee);
        }
        if top_level && roll < 50 {
            return Stmt::Sync;
        }
        if !in_callee && self.has_callee && roll < 58 {
            return Stmt::CallShared;
        }
        if roll < 80 {
            Stmt::If {
                cond: self.cond(),
                then_b: self.stmts(depth + 1, in_callee),
                else_b: if self.rng.gen_range(0u32..4) == 0 {
                    Vec::new() // empty else-arm edge case
                } else {
                    self.stmts(depth + 1, in_callee)
                },
                id: self.id(),
            }
        } else {
            let rng_trips = self.rng.gen::<bool>();
            let early = if !in_callee && self.rng.gen_range(0u32..3) == 0 {
                let esc = if self.rng.gen::<bool>() { Escape::Break } else { Escape::ThreadExit };
                Some((self.cond(), esc))
            } else {
                None
            };
            Stmt::Loop {
                trips: self.rng.gen_range(1u32..6),
                rng_trips,
                early,
                body: self.stmts(depth + 1, in_callee),
                id: self.id(),
            }
        }
    }

    fn stmts(&mut self, depth: u32, in_callee: bool) -> Vec<Stmt> {
        let n = self.rng.gen_range(1usize..4);
        (0..n).map(|_| self.stmt(depth, false, in_callee)).collect()
    }

    fn top_stmts(&mut self) -> Vec<Stmt> {
        let n = self.rng.gen_range(2usize..5);
        (0..n).map(|_| self.stmt(0, true, false)).collect()
    }
}

/// Collects the ids of every `If`/`Loop` construct, outer-first.
pub fn collect_constructs(stmts: &[Stmt]) -> Vec<u32> {
    let mut out = Vec::new();
    fn walk(stmts: &[Stmt], out: &mut Vec<u32>) {
        for s in stmts {
            match s {
                Stmt::If { then_b, else_b, id, .. } => {
                    out.push(*id);
                    walk(then_b, out);
                    walk(else_b, out);
                }
                Stmt::Loop { body, id, .. } => {
                    out.push(*id);
                    walk(body, out);
                }
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}

/// Whether any statement (recursively) is a `CallShared`.
pub fn contains_call(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::CallShared => true,
        Stmt::If { then_b, else_b, .. } => contains_call(then_b) || contains_call(else_b),
        Stmt::Loop { body, .. } => contains_call(body),
        _ => false,
    })
}

impl ProgramSpec {
    /// Deterministically derives a program from `seed`.
    pub fn generate(seed: u64) -> ProgramSpec {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0DE_D1CE);
        let shape = match rng.gen_range(0u32..10) {
            0..=2 => Shape::IterationDelay,
            3..=5 => Shape::LoopMerge,
            6..=7 => Shape::CommonCall,
            _ => Shape::Mixed,
        };
        let warps = rng.gen_range(1usize..4);
        let warp_width = if rng.gen::<bool>() { 4 } else { 8 };

        let wants_callee = shape == Shape::CommonCall || rng.gen_range(0u32..4) == 0;
        let mut g = Gen { rng, next_id: 0, has_callee: wants_callee };
        let mut callee = if wants_callee {
            let stmts = g.stmts(1, true);
            let recursion =
                if g.rng.gen_range(0u32..4) == 0 { Some(g.rng.gen_range(1u32..3)) } else { None };
            Some(CalleeSpec { stmts, recursion })
        } else {
            None
        };

        let mut stmts = match shape {
            Shape::IterationDelay => {
                let then_b = vec![Stmt::Work(g.rng.gen_range(24u32..48)), g.leaf(false)];
                let else_b = if g.rng.gen::<bool>() { vec![g.leaf(false)] } else { Vec::new() };
                let inner = Stmt::If { cond: g.cond(), then_b, else_b, id: g.id() };
                let body = vec![inner, g.leaf(false)];
                vec![
                    g.leaf(false),
                    Stmt::Loop {
                        trips: g.rng.gen_range(3u32..6),
                        rng_trips: g.rng.gen::<bool>(),
                        early: None,
                        body,
                        id: g.id(),
                    },
                ]
            }
            Shape::LoopMerge => {
                let body = vec![Stmt::Work(g.rng.gen_range(16u32..40)), g.leaf(false)];
                let early = if g.rng.gen_range(0u32..3) == 0 {
                    Some((g.cond(), Escape::Break))
                } else {
                    None
                };
                vec![
                    Stmt::Loop { trips: 4, rng_trips: true, early, body, id: g.id() },
                    g.leaf(false),
                ]
            }
            Shape::CommonCall => {
                let then_b = vec![g.leaf(false), Stmt::CallShared];
                let else_b = vec![Stmt::CallShared, g.leaf(false)];
                vec![g.leaf(false), Stmt::If { cond: g.cond(), then_b, else_b, id: g.id() }]
            }
            Shape::Mixed => g.top_stmts(),
        };
        stmts.push(Stmt::StoreAcc);

        // Drop an unused callee (Mixed may roll one but never call it).
        if callee.is_some() && !contains_call(&stmts) {
            callee = None;
        }

        // Predictions: mostly one, sometimes none or an overlapping pair.
        let constructs = collect_constructs(&stmts);
        let mut targets: Vec<PredTarget> =
            constructs.iter().map(|&id| PredTarget::Construct(id)).collect();
        let callee_predictable =
            callee.as_ref().is_some_and(|c| c.recursion.is_none()) && contains_call(&stmts);
        if callee_predictable {
            targets.push(PredTarget::Callee);
        }
        if shape == Shape::CommonCall && callee_predictable {
            // Bias the Common-Call shape toward the interprocedural pass.
            targets.push(PredTarget::Callee);
        }
        let n_preds = if targets.is_empty() {
            0
        } else {
            match g.rng.gen_range(0u32..100) {
                0..=9 => 0,
                10..=84 => 1,
                _ => 2.min(targets.len()),
            }
        };
        let mut predictions = Vec::new();
        for _ in 0..n_preds {
            let target = targets[g.rng.gen_range(0usize..targets.len())];
            if predictions.iter().any(|p: &PredSpec| p.target == target) {
                continue;
            }
            let threshold = if g.rng.gen_range(0u32..100) < 35 {
                let ww = warp_width as u32;
                let opts = [0, 1, 2, ww / 2, ww - 1, ww];
                Some(opts[g.rng.gen_range(0usize..opts.len())])
            } else {
                None
            };
            predictions.push(PredSpec { target, threshold });
        }

        ProgramSpec { seed, shape, warps, warp_width, callee, stmts, predictions }
    }

    /// Total threads this spec launches.
    pub fn num_threads(&self) -> usize {
        self.warps * self.warp_width
    }
}

/// Proptest adapter: draws a seed and derives the spec from it, so a
/// failing case is always replayable from one `u64`.
pub fn spec_strategy() -> impl proptest::strategy::Strategy<Value = ProgramSpec> {
    use proptest::strategy::Strategy as _;
    proptest::strategy::any::<u64>().prop_map(ProgramSpec::generate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            assert_eq!(ProgramSpec::generate(seed), ProgramSpec::generate(seed));
        }
    }

    #[test]
    fn shapes_all_occur() {
        let mut seen = [false; 4];
        for seed in 0..64u64 {
            let s = ProgramSpec::generate(seed);
            seen[match s.shape {
                Shape::IterationDelay => 0,
                Shape::LoopMerge => 1,
                Shape::CommonCall => 2,
                Shape::Mixed => 3,
            }] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn predictions_reference_real_targets() {
        for seed in 0..256u64 {
            let s = ProgramSpec::generate(seed);
            let constructs = collect_constructs(&s.stmts);
            for p in &s.predictions {
                match p.target {
                    PredTarget::Construct(id) => {
                        assert!(constructs.contains(&id), "seed {seed}: dangling L{id}")
                    }
                    PredTarget::Callee => {
                        assert!(s.callee.is_some() && contains_call(&s.stmts), "seed {seed}")
                    }
                }
            }
        }
    }
}
