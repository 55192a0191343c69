//! The tree-walking reference interpreter (the semantic oracle).
//!
//! This is the original interpreter the simulator's fast engine — the
//! lockstep cohort of [`crate::sweep`], a scalar launch's at one slot
//! behind [`crate::exec`] — was refactored from. It executes the
//! structured [`Module`] directly — frames carry `(func, block, inst)`
//! triples and every issue slot walks the `IdVec`s — and is kept as the
//! executable specification of the execution model: a property test
//! asserts that [`run_image`](crate::exec::run_image) on a decoded image
//! produces bit-identical metrics, memory, traces, profiles, and errors
//! to [`run_reference`] on the same module.
//!
//! Execution model (a software rendition of Volta's *independent thread
//! scheduling*):
//!
//! - every thread has its own PC (a frame stack, actually — device calls
//!   push frames) and register file;
//! - each issue slot, a warp groups its runnable threads by PC and issues
//!   **one** instruction for **one** group — divergence therefore
//!   serializes execution and is directly visible in the SIMT-efficiency
//!   metric;
//! - convergence-barrier registers hold per-warp participation masks;
//!   `Wait` blocks a thread until every live participant of the barrier is
//!   blocked on it, then releases them together (and clears the register),
//!   which is how reconvergence happens;
//! - a thread's `Exit` drops it from every mask, so barriers never wait on
//!   departed threads (Volta's forward-progress guarantee).
//!
//! Warps only interact through global memory (including the atomic
//! work-queue counter used by thread coarsening); barrier state is
//! strictly per-warp.
//!
//! The oracle models the barrier register file only: a configuration
//! naming a hardware reconvergence model is refused, not run as if it
//! were the barrier file.

use crate::alu::{eval_bin, eval_un};
use crate::config::{ReconvergenceModel, SimConfig};
use crate::decode::PcOrigin;
use crate::error::{BarrierState, ReconDump, SimError, ThreadLocation};
use crate::journal::JournalKind;
use crate::machine::{Launch, SimOutput};
use crate::metrics::Metrics;
use crate::observe::Observer;
use crate::rng::SplitMix64;
use crate::sched::select_group;
use simt_ir::{
    BarrierId, BarrierOp, BinOp, BlockId, FuncId, FuncRef, Inst, MemSpace, Module, Operand, Reg,
    RngKind, SpecialValue, Terminator, Value,
};

#[derive(Clone, Debug)]
struct Frame {
    func: FuncId,
    block: BlockId,
    inst: usize,
    regs: Vec<Value>,
    /// Caller registers that receive this frame's return values.
    ret_regs: Vec<Reg>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    Waiting(BarrierId),
    /// Blocked at `__syncthreads` until every live thread arrives.
    WaitingSync,
    Exited,
}

#[derive(Clone, Debug)]
struct ThreadState {
    frames: Vec<Frame>,
    status: Status,
    rng: SplitMix64,
    local: Vec<Value>,
}

impl ThreadState {
    fn frame(&self) -> &Frame {
        self.frames.last().expect("thread has no frame")
    }
    fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("thread has no frame")
    }
}

#[derive(Clone, Debug)]
struct OracleWarp {
    threads: Vec<ThreadState>,
    /// Barrier participation masks, one bit per lane.
    masks: Vec<u64>,
    busy_until: u64,
    rr_cursor: usize,
    /// Lanes of the group issued last (greedy scheduling state).
    last_lanes: u64,
    /// Per-level tag arrays of the memory-hierarchy cost model, when
    /// [`SimConfig::mem`] is on (empty otherwise).
    mem_tags: crate::mem::MemTags,
    done: bool,
}

struct Oracle<'m> {
    module: &'m Module,
    cfg: &'m SimConfig,
    warps: Vec<OracleWarp>,
    global: Vec<Value>,
    metrics: Metrics,
    obs: Observer,
    /// Machine-wide MSHR files of the memory-hierarchy cost model.
    mshrs: crate::mem::MemMshrs,
    /// Hierarchy walk staging buffers.
    mem_scratch: crate::mem::MemScratch,
    cycle: u64,
}

/// Runs a kernel launch to completion on the tree-walking interpreter.
///
/// Prefer [`run`](crate::machine::run) (the one-slot cohort) — this entry
/// point exists for differential testing and as the baseline side of the
/// decoded-vs-reference benchmark.
///
/// # Errors
///
/// Returns a [`SimError`] on deadlock, memory/arithmetic faults, cycle
/// budget exhaustion, or an invalid/unlinked module, and
/// [`SimError::InvalidModule`] when `cfg.recon` is a hardware
/// reconvergence model, which the oracle does not model.
pub fn run_reference(
    module: &Module,
    cfg: &SimConfig,
    launch: &Launch,
) -> Result<SimOutput, SimError> {
    let kernel = module
        .function_by_name(&launch.kernel)
        .ok_or_else(|| SimError::NoSuchKernel(launch.kernel.clone()))?;
    let kfunc = &module.functions[kernel];
    if launch.args.len() > kfunc.num_params {
        return Err(SimError::InvalidModule(format!(
            "kernel @{} takes {} params, launch provides {}",
            kfunc.name,
            kfunc.num_params,
            launch.args.len()
        )));
    }

    let num_barriers =
        module.functions.iter().map(|(_, f)| f.num_barriers).max().unwrap_or(0).max(1);

    cfg.check_warp_width()?;
    if cfg.recon != ReconvergenceModel::BarrierFile {
        return Err(SimError::InvalidModule(format!(
            "the reference interpreter models the barrier file only, not {}",
            cfg.recon.spec()
        )));
    }
    let width = cfg.warp_width;
    let mut warps = Vec::with_capacity(launch.num_warps);
    for w in 0..launch.num_warps {
        let mut threads = Vec::with_capacity(width);
        for lane in 0..width {
            let tid = (w * width + lane) as u64;
            let mut regs = vec![Value::default(); kfunc.num_regs];
            for (i, a) in launch.args.iter().enumerate() {
                regs[i] = *a;
            }
            threads.push(ThreadState {
                frames: vec![Frame {
                    func: kernel,
                    block: kfunc.entry,
                    inst: 0,
                    regs,
                    ret_regs: Vec::new(),
                }],
                status: Status::Runnable,
                rng: SplitMix64::for_thread(launch.seed, tid),
                local: vec![Value::default(); launch.local_mem_size],
            });
        }
        warps.push(OracleWarp {
            threads,
            masks: vec![0; num_barriers],
            busy_until: 0,
            rr_cursor: 0,
            last_lanes: 0,
            mem_tags: crate::mem::MemTags::new(cfg.mem.as_ref()),
            done: false,
        });
    }

    let mut machine = Oracle {
        module,
        cfg,
        warps,
        global: launch.global_mem.clone(),
        metrics: Metrics::new(launch.num_warps, width),
        obs: Observer::new(cfg),
        mshrs: crate::mem::MemMshrs::new(cfg.mem.as_ref()),
        mem_scratch: crate::mem::MemScratch::default(),
        cycle: 0,
    };
    machine.run_to_completion()?;

    let Oracle { global, mut metrics, obs, cycle, .. } = machine;
    metrics.cycles = cycle;
    Ok(obs.finish(metrics, Default::default(), if cfg.final_mem { global } else { Vec::new() }))
}

impl<'m> Oracle<'m> {
    fn run_to_completion(&mut self) -> Result<(), SimError> {
        loop {
            let mut next_ready = u64::MAX;
            let mut all_done = true;
            for w in 0..self.warps.len() {
                if self.warps[w].done {
                    continue;
                }
                all_done = false;
                if self.warps[w].busy_until > self.cycle {
                    next_ready = next_ready.min(self.warps[w].busy_until);
                    continue;
                }
                match self.pick_group(w) {
                    Some((at, lanes)) => {
                        let mut mask = 0u64;
                        for &l in &lanes {
                            mask |= 1 << l;
                        }
                        let last = std::mem::replace(&mut self.warps[w].last_lanes, mask);
                        self.obs.pick(self.cycle, w, at, last, mask);
                        let cost = self.issue(w, at, mask, &lanes)?;
                        self.warps[w].busy_until = self.cycle + u64::from(cost.max(1));
                        next_ready = next_ready.min(self.warps[w].busy_until);
                    }
                    None => {
                        // No runnable group. Either everyone exited, or
                        // every live thread is blocked — since barriers
                        // are warp-local and release checks already ran,
                        // that is a deadlock.
                        let live: Vec<usize> = (0..self.cfg.warp_width)
                            .filter(|&l| self.warps[w].threads[l].status != Status::Exited)
                            .collect();
                        if live.is_empty() {
                            self.warps[w].done = true;
                        } else {
                            let waiting = live
                                .iter()
                                .map(|&l| {
                                    let t = &self.warps[w].threads[l];
                                    let b = match t.status {
                                        Status::Waiting(b) => b,
                                        // WaitingSync reported as barrier 0
                                        // (the diagnostic text carries the
                                        // real story).
                                        _ => BarrierId(0),
                                    };
                                    (self.location(w, l), b)
                                })
                                .collect();
                            self.obs.event(self.cycle, w, JournalKind::DeadlockOnset);
                            let barriers = self.barrier_dump(w);
                            return Err(SimError::Deadlock {
                                cycle: self.cycle,
                                waiting,
                                barriers,
                                recon: ReconDump::BarrierFile,
                            });
                        }
                    }
                }
            }
            if all_done {
                return Ok(());
            }
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::MaxCyclesExceeded { limit: self.cfg.max_cycles });
            }
            if next_ready == u64::MAX {
                // Every remaining warp became done this round.
                continue;
            }
            self.cycle = next_ready.max(self.cycle + 1);
        }
    }

    /// Snapshot of every barrier register of warp `w` that still has
    /// live participants or waiters (the deadlock diagnostic dump).
    fn barrier_dump(&self, w: usize) -> Vec<BarrierState> {
        let warp = &self.warps[w];
        let mut live = 0u64;
        for (l, t) in warp.threads.iter().enumerate() {
            if t.status != Status::Exited {
                live |= 1 << l;
            }
        }
        let mut out = Vec::new();
        for (i, &m) in warp.masks.iter().enumerate() {
            let b = BarrierId::new(i);
            let mut waiters = 0u64;
            for (l, t) in warp.threads.iter().enumerate() {
                if t.status == Status::Waiting(b) {
                    waiters |= 1 << l;
                }
            }
            let participants = m & live;
            if participants != 0 || waiters != 0 {
                out.push(BarrierState { barrier: b, participants, waiters });
            }
        }
        out
    }

    fn location(&self, warp: usize, lane: usize) -> ThreadLocation {
        let t = &self.warps[warp].threads[lane];
        match t.frames.last() {
            Some(f) => ThreadLocation { warp, lane, func: f.func, block: f.block, inst: f.inst },
            None => ThreadLocation { warp, lane, func: FuncId(0), block: BlockId(0), inst: 0 },
        }
    }

    /// Groups runnable lanes by PC and applies the scheduler policy.
    fn pick_group(&mut self, w: usize) -> Option<(PcOrigin, Vec<usize>)> {
        let warp = &mut self.warps[w];
        let mut groups: Vec<(PcOrigin, Vec<usize>)> = Vec::new();
        for (lane, t) in warp.threads.iter().enumerate() {
            if t.status != Status::Runnable {
                continue;
            }
            let f = t.frame();
            let key = PcOrigin { func: f.func, block: f.block, inst: f.inst as u32 };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, lanes)) => lanes.push(lane),
                None => groups.push((key, vec![lane])),
            }
        }
        select_group(self.cfg.scheduler, groups, warp.last_lanes, &mut warp.rr_cursor)
    }

    /// Issues one instruction (or terminator) for the given group; returns
    /// its cycle cost.
    fn issue(
        &mut self,
        w: usize,
        at: PcOrigin,
        mask: u64,
        lanes: &[usize],
    ) -> Result<u32, SimError> {
        // Reborrow through the module's own lifetime so the instruction
        // stays borrowed (not cloned) across the &mut self calls below.
        let module: &'m Module = self.module;
        let block = &module.functions[at.func].blocks[at.block];

        let threads = &self.warps[w].threads;
        let parked = threads.iter().filter_map(|t| match t.status {
            Status::Waiting(b) => Some(b),
            _ => None,
        });
        self.metrics.stall_cycles += parked.clone().count() as u64;
        self.obs.waits(parked);

        let inst_idx = at.inst as usize;
        let cost = if inst_idx < block.insts.len() {
            self.exec_inst(w, at, lanes, &block.insts[inst_idx])?
        } else {
            self.exec_term(w, at, lanes, &block.term)?;
            self.cfg.latency.control
        };

        // Metrics (cost-weighted: see `Metrics::active_lane_sum`).
        let weight = u64::from(cost.max(1));
        let active = lanes.len() as u64 * weight;
        self.metrics.issues += 1;
        self.metrics.issue_weight += weight;
        self.metrics.active_lane_sum += active;
        self.metrics.lane_insts += lanes.len() as u64;
        let (wi, wa) = self.metrics.per_warp[w];
        self.metrics.per_warp[w] = (wi + weight, wa + active);
        if block.roi {
            self.metrics.roi_issues += weight;
            self.metrics.roi_active_lane_sum += active;
        }

        self.obs.issue(self.cycle, w, at, mask, cost, block.roi);
        Ok(cost)
    }

    fn eval(&self, w: usize, lane: usize, op: Operand) -> Value {
        match op {
            Operand::Imm(v) => v,
            Operand::Reg(r) => self.warps[w].threads[lane].frame().regs[r.index()],
        }
    }

    fn set_reg(&mut self, w: usize, lane: usize, r: Reg, v: Value) {
        self.warps[w].threads[lane].frame_mut().regs[r.index()] = v;
    }

    fn advance(&mut self, w: usize, lane: usize) {
        self.warps[w].threads[lane].frame_mut().inst += 1;
    }

    fn exec_inst(
        &mut self,
        w: usize,
        at: PcOrigin,
        lanes: &[usize],
        inst: &Inst,
    ) -> Result<u32, SimError> {
        let lat = &self.cfg.latency;
        let mut cost = lat.issue_cost(inst);
        match inst {
            Inst::Bin { op, dst, lhs, rhs } => {
                for &l in lanes {
                    let a = self.eval(w, l, *lhs);
                    let b = self.eval(w, l, *rhs);
                    let v = eval_bin(*op, a, b).map_err(|m| SimError::Arithmetic {
                        at: self.location(w, l),
                        message: m,
                    })?;
                    self.set_reg(w, l, *dst, v);
                    self.advance(w, l);
                }
            }
            Inst::Un { op, dst, src } => {
                for &l in lanes {
                    let a = self.eval(w, l, *src);
                    let v = eval_un(*op, a).map_err(|m| SimError::Arithmetic {
                        at: self.location(w, l),
                        message: m,
                    })?;
                    self.set_reg(w, l, *dst, v);
                    self.advance(w, l);
                }
            }
            Inst::Mov { dst, src } => {
                for &l in lanes {
                    let v = self.eval(w, l, *src);
                    self.set_reg(w, l, *dst, v);
                    self.advance(w, l);
                }
            }
            Inst::Sel { dst, cond, if_true, if_false } => {
                for &l in lanes {
                    let c = self.eval(w, l, *cond);
                    let v = if c.is_truthy() {
                        self.eval(w, l, *if_true)
                    } else {
                        self.eval(w, l, *if_false)
                    };
                    self.set_reg(w, l, *dst, v);
                    self.advance(w, l);
                }
            }
            Inst::Load { dst, space, addr } => {
                let mut addrs = Vec::with_capacity(lanes.len());
                for &l in lanes {
                    let a = self.eval(w, l, *addr).as_i64();
                    addrs.push(a);
                    let v = self.mem_read(w, l, *space, a)?;
                    self.set_reg(w, l, *dst, v);
                    self.advance(w, l);
                }
                if *space == MemSpace::Global {
                    cost = self.global_access_cost(w, at, &addrs, cost);
                }
            }
            Inst::Store { space, addr, value } => {
                let mut addrs = Vec::with_capacity(lanes.len());
                for &l in lanes {
                    let a = self.eval(w, l, *addr).as_i64();
                    let v = self.eval(w, l, *value);
                    addrs.push(a);
                    self.mem_write(w, l, *space, a, v)?;
                    self.advance(w, l);
                }
                if *space == MemSpace::Global {
                    // Stores write through: cost like a load, but the
                    // touched lines are invalidated in every warp (they
                    // now differ from any cached copy).
                    cost = self.global_access_cost(w, at, &addrs, cost);
                    self.invalidate_lines(&addrs);
                }
            }
            Inst::AtomicAdd { dst, addr, value } => {
                // Lanes are serialized in lane order, like hardware atomics
                // to the same address. Atomics bypass the cache and
                // invalidate the lines they touch.
                let mut atomic_addrs = Vec::with_capacity(lanes.len());
                for &l in lanes {
                    let a = self.eval(w, l, *addr).as_i64();
                    let v = self.eval(w, l, *value);
                    let old = self.mem_read(w, l, MemSpace::Global, a)?;
                    let new = eval_bin(BinOp::Add, old, v).map_err(|m| SimError::Arithmetic {
                        at: self.location(w, l),
                        message: m,
                    })?;
                    self.mem_write(w, l, MemSpace::Global, a, new)?;
                    self.set_reg(w, l, *dst, old);
                    atomic_addrs.push(a);
                    self.advance(w, l);
                }
                self.invalidate_lines(&atomic_addrs);
            }
            Inst::Special { dst, kind } => {
                let width = self.cfg.warp_width;
                let n_threads = (self.warps.len() * width) as i64;
                for &l in lanes {
                    let v = match kind {
                        SpecialValue::Tid => Value::I64((w * width + l) as i64),
                        SpecialValue::LaneId => Value::I64(l as i64),
                        SpecialValue::WarpId => Value::I64(w as i64),
                        SpecialValue::NumThreads => Value::I64(n_threads),
                        SpecialValue::WarpWidth => Value::I64(width as i64),
                    };
                    self.set_reg(w, l, *dst, v);
                    self.advance(w, l);
                }
            }
            Inst::Rng { dst, kind } => {
                for &l in lanes {
                    let v = match kind {
                        RngKind::U63 => Value::I64(self.warps[w].threads[l].rng.next_u63()),
                        RngKind::Unit => Value::F64(self.warps[w].threads[l].rng.next_unit()),
                    };
                    self.set_reg(w, l, *dst, v);
                    self.advance(w, l);
                }
            }
            Inst::SyncThreads => {
                let mut mask = 0u64;
                for &l in lanes {
                    self.warps[w].threads[l].status = Status::WaitingSync;
                    mask |= 1 << l;
                }
                self.obs.event(self.cycle, w, JournalKind::SyncArrive { mask });
                self.sync_release_check(w);
            }
            Inst::Vote { dst, pred } => {
                // Warp-synchronous: counts over the lanes issued together.
                let mut count = 0i64;
                for &l in lanes {
                    if self.eval(w, l, *pred).is_truthy() {
                        count += 1;
                    }
                }
                for &l in lanes {
                    self.set_reg(w, l, *dst, Value::I64(count));
                    self.advance(w, l);
                }
            }
            Inst::SeedRng { src } => {
                let launch_mix = 0x5EED_u64; // stream domain separator
                for &l in lanes {
                    let v = self.eval(w, l, *src).as_i64() as u64;
                    self.warps[w].threads[l].rng = SplitMix64::for_thread(v ^ launch_mix, v);
                    self.advance(w, l);
                }
            }
            Inst::Call { func, args, rets } => {
                let callee = match func {
                    FuncRef::Id(id) => *id,
                    FuncRef::Name(n) => {
                        return Err(SimError::UnresolvedCall {
                            at: self.location(w, lanes[0]),
                            callee: n.clone(),
                        })
                    }
                };
                let cf = &self.module.functions[callee];
                let (entry, num_regs) = (cf.entry, cf.num_regs);
                for &l in lanes {
                    let mut regs = vec![Value::default(); num_regs];
                    for (i, a) in args.iter().enumerate() {
                        regs[i] = self.eval(w, l, *a);
                    }
                    // Return to the instruction after the call.
                    self.advance(w, l);
                    self.warps[w].threads[l].frames.push(Frame {
                        func: callee,
                        block: entry,
                        inst: 0,
                        regs,
                        ret_regs: rets.clone(),
                    });
                }
            }
            Inst::Barrier(op) => self.exec_barrier(w, lanes, *op),
            Inst::Work { .. } | Inst::Nop => {
                for &l in lanes {
                    self.advance(w, l);
                }
            }
        }
        if inst.is_barrier() {
            self.metrics.barrier_ops += lanes.len() as u64;
        }
        Ok(cost)
    }

    fn exec_barrier(&mut self, w: usize, lanes: &[usize], op: BarrierOp) {
        let mut mask = 0u64;
        for &l in lanes {
            mask |= 1 << l;
        }
        match op {
            BarrierOp::Join(b) | BarrierOp::Rejoin(b) => {
                for &l in lanes {
                    self.warps[w].masks[b.index()] |= 1 << l;
                    self.advance(w, l);
                }
                self.obs.event(self.cycle, w, JournalKind::BarrierJoin { barrier: b, mask });
            }
            BarrierOp::Cancel(b) => {
                for &l in lanes {
                    self.warps[w].masks[b.index()] &= !(1 << l);
                    self.advance(w, l);
                }
                self.obs.event(self.cycle, w, JournalKind::BarrierCancel { barrier: b, mask });
                self.release_check(w, b);
            }
            BarrierOp::Copy { dst, src } => {
                self.warps[w].masks[dst.index()] = self.warps[w].masks[src.index()];
                for &l in lanes {
                    self.advance(w, l);
                }
                self.release_check(w, dst);
            }
            BarrierOp::ArrivedCount { dst, bar } => {
                let n = self.warps[w].masks[bar.index()].count_ones() as i64;
                for &l in lanes {
                    self.set_reg(w, l, dst, Value::I64(n));
                    self.advance(w, l);
                }
            }
            BarrierOp::Wait(b) => {
                // Block at the wait instruction; the PC advances on
                // release.
                for &l in lanes {
                    self.warps[w].threads[l].status = Status::Waiting(b);
                }
                self.obs.event(self.cycle, w, JournalKind::BarrierWait { barrier: b, mask });
                self.release_check(w, b);
            }
        }
    }

    /// Releases the `__syncthreads` cohort once every live thread is at
    /// one.
    fn sync_release_check(&mut self, w: usize) {
        let warp = &mut self.warps[w];
        let all_at_sync =
            warp.threads.iter().all(|t| matches!(t.status, Status::WaitingSync | Status::Exited));
        let any = warp.threads.iter().any(|t| t.status == Status::WaitingSync);
        if all_at_sync && any {
            let mut releasing = 0u64;
            for (l, t) in warp.threads.iter_mut().enumerate() {
                if t.status == Status::WaitingSync {
                    t.status = Status::Runnable;
                    t.frame_mut().inst += 1;
                    releasing |= 1 << l;
                }
            }
            self.obs.event(self.cycle, w, JournalKind::SyncRelease { mask: releasing });
        }
    }

    /// Releases barrier `b` if every live participant is blocked on it.
    fn release_check(&mut self, w: usize, b: BarrierId) {
        let warp = &mut self.warps[w];
        let mut live_mask = 0u64;
        let mut waiting_mask = 0u64;
        for (l, t) in warp.threads.iter().enumerate() {
            if t.status != Status::Exited {
                live_mask |= 1 << l;
            }
            if t.status == Status::Waiting(b) {
                waiting_mask |= 1 << l;
            }
        }
        if waiting_mask == 0 {
            return;
        }
        let participants = warp.masks[b.index()] & live_mask;
        if participants & !waiting_mask == 0 {
            // Release: all waiting lanes advance past their wait; the
            // barrier register is consumed.
            warp.masks[b.index()] = 0;
            for l in 0..warp.threads.len() {
                if waiting_mask & (1 << l) != 0 {
                    warp.threads[l].status = Status::Runnable;
                    warp.threads[l].frame_mut().inst += 1;
                }
            }
            let release = JournalKind::BarrierRelease { barrier: b, mask: waiting_mask };
            self.obs.event(self.cycle, w, release);
        }
    }

    fn exec_term(
        &mut self,
        w: usize,
        at: PcOrigin,
        lanes: &[usize],
        term: &Terminator,
    ) -> Result<(), SimError> {
        match term {
            Terminator::Jump(t) => {
                for &l in lanes {
                    let f = self.warps[w].threads[l].frame_mut();
                    f.block = *t;
                    f.inst = 0;
                }
            }
            Terminator::Branch { cond, then_bb, else_bb, .. } => {
                let mut taken = 0u64;
                let mut mask = 0u64;
                for &l in lanes {
                    mask |= 1 << l;
                    let c = self.eval(w, l, *cond);
                    let f = self.warps[w].threads[l].frame_mut();
                    f.block = if c.is_truthy() {
                        taken |= 1 << l;
                        *then_bb
                    } else {
                        *else_bb
                    };
                    f.inst = 0;
                }
                let not_taken = mask & !taken;
                if taken != 0 && not_taken != 0 {
                    let (func, block, inst) = (at.func, at.block, at.inst as usize);
                    let diverge =
                        JournalKind::BranchDiverge { func, block, inst, taken, not_taken };
                    self.obs.event(self.cycle, w, diverge);
                }
            }
            Terminator::Return(values) => {
                let mut exited = 0u64;
                for &l in lanes {
                    let vals: Vec<Value> = values.iter().map(|v| self.eval(w, l, *v)).collect();
                    let thread = &mut self.warps[w].threads[l];
                    let frame = thread.frames.pop().expect("return without frame");
                    if thread.frames.is_empty() {
                        // Returning from the kernel frame behaves as exit
                        // (the verifier rejects this statically, but stay
                        // safe at runtime).
                        thread.status = Status::Exited;
                        thread.frames.push(frame);
                        exited |= 1 << l;
                        continue;
                    }
                    let caller = thread.frames.last_mut().expect("caller frame");
                    for (r, v) in frame.ret_regs.iter().zip(vals) {
                        caller.regs[r.index()] = v;
                    }
                }
                if exited != 0 {
                    self.on_exit_mask(w, exited);
                }
            }
            Terminator::Exit => {
                let mut mask = 0u64;
                for &l in lanes {
                    self.warps[w].threads[l].status = Status::Exited;
                    mask |= 1 << l;
                }
                self.on_exit_mask(w, mask);
            }
        }
        Ok(())
    }

    /// Drops exited lanes from every barrier and re-checks releases —
    /// the forward-progress rule. Batched over a mask so the releases
    /// (and their journal events) fire in the same order as the decoded
    /// engine's `WarpCtl::exit`: releases are monotone in removed
    /// participants, so clearing the whole cohort before one re-check
    /// pass releases exactly the barriers that per-lane processing would.
    fn on_exit_mask(&mut self, w: usize, mask: u64) {
        let nb = self.warps[w].masks.len();
        for b in 0..nb {
            self.warps[w].masks[b] &= !mask;
        }
        for b in 0..nb {
            self.release_check(w, BarrierId::new(b));
        }
        self.sync_release_check(w);
    }

    /// Cost of a global access of the instruction at `at` over the given
    /// cell addresses: the memory-hierarchy walk when one is configured
    /// (recording its stall), else the flat coalescing fold (no model
    /// serves data — values always come from memory).
    fn global_access_cost(&mut self, w: usize, at: PcOrigin, addrs: &[i64], base_cost: u32) -> u32 {
        let cfg = self.cfg;
        let now = self.cycle;
        if let Some(hier) = &cfg.mem {
            // Hierarchy walk at the issue cycle, identical to the
            // cohort's: tag fills and MSHR allocation commit here.
            let Oracle { warps, metrics, mshrs, mem_scratch, obs, .. } = self;
            let out =
                crate::mem::commit(hier, &mut warps[w].mem_tags, mshrs, mem_scratch, addrs, now);
            metrics.mem.record(&out);
            obs.mem(now, w, at, &out);
            return out.cost;
        }
        let lat = &cfg.latency;
        base_cost + lat.mem_segment * lat.segments(addrs).saturating_sub(1)
    }

    /// Drops the lines covering `addrs` from every warp's tag state
    /// (stores and atomics write through).
    fn invalidate_lines(&mut self, addrs: &[i64]) {
        if let Some(hier) = &self.cfg.mem {
            for warp in &mut self.warps {
                crate::mem::invalidate(hier, &mut warp.mem_tags, addrs);
            }
        }
    }

    fn mem_read(
        &self,
        w: usize,
        lane: usize,
        space: MemSpace,
        addr: i64,
    ) -> Result<Value, SimError> {
        let (mem, size) = match space {
            MemSpace::Global => (&self.global, self.global.len()),
            MemSpace::Local => {
                let t = &self.warps[w].threads[lane];
                (&t.local, t.local.len())
            }
        };
        if addr < 0 || addr as usize >= size {
            return Err(SimError::MemoryFault { at: self.location(w, lane), addr, size, space });
        }
        Ok(mem[addr as usize])
    }

    fn mem_write(
        &mut self,
        w: usize,
        lane: usize,
        space: MemSpace,
        addr: i64,
        value: Value,
    ) -> Result<(), SimError> {
        let at = self.location(w, lane);
        let (mem, size) = match space {
            MemSpace::Global => {
                let size = self.global.len();
                (&mut self.global, size)
            }
            MemSpace::Local => {
                let t = &mut self.warps[w].threads[lane];
                let size = t.local.len();
                (&mut t.local, size)
            }
        };
        if addr < 0 || addr as usize >= size {
            return Err(SimError::MemoryFault { at, addr, size, space });
        }
        mem[addr as usize] = value;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::parse_and_link;

    #[test]
    fn the_oracle_refuses_the_hardware_reconvergence_models() {
        let module = parse_and_link(
            "kernel @k(params=0, regs=1, barriers=0, entry=bb0) {\nbb0:\n  exit\n}\n",
        )
        .unwrap();
        let launch = Launch::new("k", 1);
        assert!(run_reference(&module, &SimConfig::default(), &launch).is_ok());
        for recon in [
            ReconvergenceModel::IpdomStack,
            ReconvergenceModel::WarpSplit { window: 4, compact: true },
        ] {
            let cfg = SimConfig { recon, ..SimConfig::default() };
            let err = run_reference(&module, &cfg, &launch).unwrap_err();
            let SimError::InvalidModule(msg) = &err else { panic!("{err:?}") };
            assert!(msg.contains(&recon.spec()), "{msg}");
        }
    }
}
