//! Lowers a [`ProgramSpec`] to a well-formed [`simt_ir::Module`].
//!
//! The lowering is intentionally boring: each `Stmt` maps to a fixed
//! instruction sequence, so any behavioural difference the grid sees
//! is attributable to the SR transforms, not to the generator. Two
//! invariants matter for the grid:
//!
//! - **RNG alignment** — every transform variant executes the same
//!   `rng.*` instructions in the same per-thread order, so the
//!   per-thread RNG streams (and thus control decisions) agree across
//!   variants.
//! - **Order-independent memory** — stores are per-thread
//!   (`global[tid]`) and shared cells are only touched by discarded
//!   `atomic_add`s, so final memory is schedule-invariant.

use crate::program::{CalleeSpec, Cond, Escape, PredTarget, ProgramSpec, Stmt};
use simt_ir::{
    BinOp, BlockId, FuncKind, Function, FunctionBuilder, Inst, Module, Operand, Reg, SpecialValue,
    UnOp,
};

/// Scratch cells (for `AtomicBump`) placed after the per-thread cells.
pub const SCRATCH_CELLS: usize = 4;

/// Global-memory cells a launch of `spec` needs: one per thread plus
/// the shared scratch cells (with a little slack).
pub fn mem_cells(spec: &ProgramSpec) -> usize {
    spec.num_threads() + SCRATCH_CELLS + 4
}

/// How a recursive callee's depth argument is chosen at each call site.
/// The genome itself only draws [`DepthBy::Uniform`]; the other arms
/// build the grid's call-depth programs, whose lanes of one issue sit at
/// *different* call depths (the same pc inside `helper`, different
/// frames).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepthBy {
    /// Every thread passes the spec's depth.
    #[default]
    Uniform,
    /// `tid % (depth + 1)`: differs by lane, the same in every seed.
    Tid,
    /// `rng.u63 % (depth + 1)`: differs by lane and by seed.
    Rng,
}

struct Emitter<'a> {
    b: &'a mut FunctionBuilder,
    acc: Reg,
    tid: Reg,
    nthreads: Reg,
    call_depth: Option<(u32, DepthBy)>,
}

impl Emitter<'_> {
    fn cond(&mut self, c: Cond) -> Reg {
        match c {
            Cond::RngLt(p) => {
                let r = self.b.rng_unit();
                self.b.bin(BinOp::Lt, r, f64::from(p) / 100.0)
            }
            Cond::TidBit(k) => {
                let m = self.b.bin(BinOp::And, self.tid, 1i64 << k);
                self.b.bin(BinOp::Ne, m, 0i64)
            }
            Cond::AccBit(k) => {
                let m = self.b.bin(BinOp::And, self.acc, 1i64 << k);
                self.b.bin(BinOp::Ne, m, 0i64)
            }
        }
    }

    fn emit_all(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.emit(s);
        }
    }

    fn emit(&mut self, s: &Stmt) {
        match *s {
            Stmt::Work(n) => self.b.work(n),
            Stmt::AccAdd(k) => self.b.bin_into(self.acc, BinOp::Add, self.acc, k),
            Stmt::AccXor(k) => self.b.bin_into(self.acc, BinOp::Xor, self.acc, k),
            Stmt::AccXorTid => self.b.bin_into(self.acc, BinOp::Xor, self.acc, self.tid),
            Stmt::StoreAcc => self.b.store_global(self.acc, self.tid),
            Stmt::LoadMix => {
                let v = self.b.load_global(self.tid);
                self.b.bin_into(self.acc, BinOp::Add, self.acc, v);
            }
            Stmt::TypeMix(p) => {
                let r = self.b.rng_unit();
                let c = self.b.bin(BinOp::Lt, r, f64::from(p) / 100.0);
                let t = self.b.sel(c, 0.5f64, 3i64);
                let t = self.b.bin(BinOp::Add, t, self.acc);
                let u = self.b.bin(BinOp::Mul, t, 2i64);
                let small = self.b.bin(BinOp::Lt, t, 64i64);
                let i = self.b.un(UnOp::FtoI, u);
                let i = self.b.bin(BinOp::Add, i, small);
                self.b.bin_into(self.acc, BinOp::Add, self.acc, i);
            }
            Stmt::AtomicBump(site) => {
                let a =
                    self.b.bin(BinOp::Add, self.nthreads, i64::from(site) % SCRATCH_CELLS as i64);
                let _ = self.b.atomic_add(a, 1i64);
            }
            Stmt::Sync => {
                let cur = self.b.current_block();
                self.b.func_mut().blocks[cur].insts.push(Inst::SyncThreads);
            }
            Stmt::CallShared => {
                let mut args: Vec<Operand> = vec![self.acc.into()];
                if let Some((depth, by)) = self.call_depth {
                    let span = i64::from(depth) + 1;
                    args.push(match by {
                        DepthBy::Uniform => i64::from(depth).into(),
                        DepthBy::Tid => self.b.bin(BinOp::Rem, self.tid, span).into(),
                        DepthBy::Rng => {
                            let r = self.b.rng_u63();
                            self.b.bin(BinOp::Rem, r, span).into()
                        }
                    });
                }
                let rets = self.b.call("helper", args, 1);
                self.b.mov_into(self.acc, rets[0]);
            }
            Stmt::If { cond, ref then_b, ref else_b, id } => {
                let cv = self.cond(cond);
                let then_bb = self.b.anon_block();
                let else_bb = self.b.anon_block();
                let join_bb = self.b.anon_block();
                self.b.br_div(cv, then_bb, else_bb);
                self.b.switch_to(then_bb);
                self.b.label_current(format!("L{id}"));
                self.b.mark_roi();
                self.emit_all(then_b);
                self.b.jmp(join_bb);
                self.b.switch_to(else_bb);
                self.emit_all(else_b);
                self.b.jmp(join_bb);
                self.b.switch_to(join_bb);
            }
            Stmt::Loop { trips, rng_trips, early, ref body, id } => {
                self.emit_loop(trips, rng_trips, early, body, id);
            }
        }
    }

    fn emit_loop(
        &mut self,
        trips: u32,
        rng_trips: bool,
        early: Option<(Cond, Escape)>,
        body: &[Stmt],
        id: u32,
    ) {
        let i = self.b.mov(0i64);
        // Per-thread trip counts are drawn once, before the loop, so the
        // count is stable across iterations.
        let trips_op: Operand = if rng_trips {
            let r = self.b.rng_u63();
            let m = self.b.bin(BinOp::Rem, r, 4i64);
            self.b.bin(BinOp::Add, m, 1i64).into()
        } else {
            i64::from(trips.max(1)).into()
        };
        let header = self.b.anon_block();
        let exit_bb = self.b.anon_block();
        self.b.jmp(header);
        self.b.switch_to(header);
        self.b.label_current(format!("L{id}"));
        self.b.mark_roi();
        if let Some((c, esc)) = early {
            let stay = self.b.anon_block();
            let cv = self.cond(c);
            match esc {
                Escape::Break => self.b.br_div(cv, exit_bb, stay),
                Escape::ThreadExit => {
                    let dead = self.b.anon_block();
                    self.b.br_div(cv, dead, stay);
                    self.b.switch_to(dead);
                    self.b.exit();
                }
            }
            self.b.switch_to(stay);
        }
        self.emit_all(body);
        self.b.bin_into(i, BinOp::Add, i, 1i64);
        let more = self.b.bin(BinOp::Lt, i, trips_op);
        if rng_trips || early.is_some() {
            self.b.br_div(more, header, exit_bb);
        } else {
            self.b.br(more, header, exit_bb);
        }
        self.b.switch_to(exit_bb);
    }
}

fn build_kernel(spec: &ProgramSpec, by: DepthBy) -> Function {
    let mut b = FunctionBuilder::new("main", FuncKind::Kernel, 0);
    let tid = b.special(SpecialValue::Tid);
    let nthreads = b.special(SpecialValue::NumThreads);
    let acc = b.mov(0i64);
    // All predictions anchor their region at the entry block, the same
    // placement as the paper's Listing 1.
    for p in &spec.predictions {
        match p.target {
            PredTarget::Construct(id) => b.predict_label(format!("L{id}"), p.threshold),
            PredTarget::Callee => b.predict_function("helper", p.threshold),
        }
    }
    let call_depth = spec.callee.as_ref().and_then(|c| c.recursion).map(|depth| (depth, by));
    let mut e = Emitter { b: &mut b, acc, tid, nthreads, call_depth };
    e.emit_all(&spec.stmts);
    b.store_global(acc, tid);
    b.exit();
    b.finish()
}

fn build_callee(spec: &CalleeSpec) -> Function {
    let recursive = spec.recursion.is_some();
    let mut b = FunctionBuilder::new("helper", FuncKind::Device, if recursive { 2 } else { 1 });
    let p0 = b.param(0);
    let acc = b.mov(p0);
    let tid = b.special(SpecialValue::Tid);
    let nthreads = b.special(SpecialValue::NumThreads);
    let mut e = Emitter { b: &mut b, acc, tid, nthreads, call_depth: None };
    e.emit_all(&spec.stmts);
    if recursive {
        // Bounded recursion: under `DepthBy::Uniform` every call site
        // passes the same depth, so this branch never diverges.
        let depth = b.param(1);
        let more = b.bin(BinOp::Gt, depth, 0i64);
        let recurse: BlockId = b.anon_block();
        let done = b.anon_block();
        b.br(more, recurse, done);
        b.switch_to(recurse);
        let d1 = b.bin(BinOp::Sub, depth, 1i64);
        let rets = b.call("helper", vec![acc.into(), d1.into()], 1);
        b.mov_into(acc, rets[0]);
        b.jmp(done);
        b.switch_to(done);
    }
    b.ret(vec![acc.into()]);
    b.finish()
}

/// Builds the IR module for `spec` (kernel `main`, plus device
/// `helper` when the spec has a callee) with calls resolved.
pub fn build_module(spec: &ProgramSpec) -> Module {
    build_module_with(spec, DepthBy::Uniform)
}

/// [`build_module`] with the recursion depth of every `helper` call
/// chosen by `by`.
pub fn build_module_with(spec: &ProgramSpec, by: DepthBy) -> Module {
    let mut m = Module::new();
    m.add_function(build_kernel(spec, by));
    if let Some(c) = &spec.callee {
        m.add_function(build_callee(c));
    }
    m.resolve_calls().expect("generated module references only the helper it defines");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramSpec;

    #[test]
    fn generated_modules_pass_the_verifier() {
        for seed in 0..128u64 {
            let spec = ProgramSpec::generate(seed);
            let m = build_module(&spec);
            if let Err(errors) = simt_ir::verify_module(&m) {
                panic!("seed {seed}: verifier rejected generated module: {errors:?}\n{m}");
            }
        }
    }

    #[test]
    fn roundtrips_through_the_text_format() {
        for seed in 0..32u64 {
            let spec = ProgramSpec::generate(seed);
            let m = build_module(&spec);
            let text = m.to_string();
            let reparsed = simt_ir::parse_module(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: reparse failed: {e}\n{text}"));
            assert_eq!(text, reparsed.to_string(), "seed {seed}");
        }
    }
}
