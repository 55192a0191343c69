//! Simulator error reporting.

use simt_ir::{BarrierId, BlockId, FuncId, MemSpace};
use std::fmt;

/// Location of a thread inside the program, for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadLocation {
    /// Warp index.
    pub warp: usize,
    /// Lane within the warp.
    pub lane: usize,
    /// Function the thread's innermost frame is executing.
    pub func: FuncId,
    /// Block within that function.
    pub block: BlockId,
    /// Instruction index within the block (`insts.len()` = at terminator).
    pub inst: usize,
}

impl fmt::Display for ThreadLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warp {} lane {} at {}/{}:{}",
            self.warp, self.lane, self.func, self.block, self.inst
        )
    }
}

/// State of one barrier register of the deadlocked warp, captured when
/// the deadlock is detected. Only barriers with live participants or
/// waiters are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarrierState {
    /// Which barrier register.
    pub barrier: BarrierId,
    /// Live lanes still registered as participants.
    pub participants: u64,
    /// Lanes currently blocked waiting on the barrier.
    pub waiters: u64,
}

/// One IPDOM reconvergence-stack entry of the deadlocked warp, top
/// entry first, captured when the deadlock is detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackEntryDump {
    /// Flat pc the entry's lanes reconverge at (`None`: arms only meet
    /// at function exit).
    pub rpc: Option<usize>,
    /// Lanes that still have to arrive at the reconvergence pc.
    pub pending: u64,
    /// Lanes parked at the reconvergence pc.
    pub arrived: u64,
}

/// One warp split of the deadlocked warp, captured when the deadlock is
/// detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitDump {
    /// Flat pc of the split's runnable frontier (`None`: no runnable
    /// lanes — the whole split is blocked).
    pub pc: Option<usize>,
    /// Lanes owned by the split.
    pub mask: u64,
    /// Cycle at which the split could issue again.
    pub busy_until: u64,
}

/// Model-aware reconvergence state attached to deadlock reports. Under
/// the hardware models the barrier-register dump is empty or tells only
/// half the story — this carries the stack / split state instead.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum ReconDump {
    /// Volta barrier-file model: the barrier-register dump already
    /// carries the reconvergence state.
    #[default]
    BarrierFile,
    /// IPDOM stack model: the deadlocked warp's stack, top entry first.
    IpdomStack {
        /// Stack entries, top first.
        stack: Vec<StackEntryDump>,
    },
    /// Warp-split model: the deadlocked warp's split list.
    WarpSplit {
        /// All splits of the warp.
        splits: Vec<SplitDump>,
    },
}

/// What went wrong for one lane inside a hot execute loop, recorded so
/// the error (and its location lookup) is built after the loop's
/// borrows end: by the cohort's arms, in both layouts.
pub(crate) enum LaneFault {
    Oob { lane: usize, addr: i64, size: usize, space: MemSpace },
    Arith { lane: usize, message: String },
}

impl LaneFault {
    /// The error this fault surfaces as, located by `at(lane)`.
    pub(crate) fn into_error(self, at: impl FnOnce(usize) -> ThreadLocation) -> SimError {
        match self {
            LaneFault::Oob { lane, addr, size, space } => {
                SimError::MemoryFault { at: at(lane), addr, size, space }
            }
            LaneFault::Arith { lane, message } => SimError::Arithmetic { at: at(lane), message },
        }
    }
}

/// Errors surfaced by the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// No kernel with the requested name exists in the module.
    NoSuchKernel(String),
    /// Every live thread is blocked on a barrier that can never release.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// The blocked threads and the barrier each waits on (threads
        /// parked at `__syncthreads` are reported against barrier 0;
        /// the register dump carries the real story).
        waiting: Vec<(ThreadLocation, BarrierId)>,
        /// Barrier-register dump of the deadlocked warp.
        barriers: Vec<BarrierState>,
        /// Reconvergence-model state of the deadlocked warp: under
        /// [`IpdomStack`](crate::config::ReconvergenceModel::IpdomStack) /
        /// [`WarpSplit`](crate::config::ReconvergenceModel::WarpSplit)
        /// the barrier dump above is empty or incomplete, and this
        /// carries the stack / split state instead.
        recon: ReconDump,
    },
    /// The configured cycle limit was exceeded.
    MaxCyclesExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// The run was cancelled cooperatively via a
    /// [`CancelToken`](crate::exec::CancelToken), which both
    /// [`run_image_with`](crate::exec::run_image_with) and the sweeps poll
    /// (deadline expiry,
    /// client disconnect, shutdown).
    Cancelled {
        /// Cycle at which the cancellation was observed.
        cycle: u64,
    },
    /// Out-of-range memory access.
    MemoryFault {
        /// Offending thread.
        at: ThreadLocation,
        /// The address accessed.
        addr: i64,
        /// Size of the memory space accessed.
        size: usize,
        /// Which space.
        space: simt_ir::MemSpace,
    },
    /// Arithmetic fault (e.g. integer division by zero).
    Arithmetic {
        /// Offending thread.
        at: ThreadLocation,
        /// Description.
        message: String,
    },
    /// A call instruction was left unresolved (module not linked).
    UnresolvedCall {
        /// Offending thread.
        at: ThreadLocation,
        /// The callee name.
        callee: String,
    },
    /// Module failed IR verification before execution.
    InvalidModule(String),
    /// A seed-sweep request the lockstep sweep engine cannot honor
    /// exactly — e.g. trace/profile/journal collection over more than
    /// one instance (events would be misattributed across instances),
    /// or a cohort wider than the 64-slot mask. Sweeps fail loudly with
    /// this instead of producing silently-wrong observability output.
    SweepUnsupported {
        /// What the request asked for that the engine rejects.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchKernel(name) => write!(f, "no kernel named @{name}"),
            SimError::Deadlock { cycle, waiting, barriers, recon } => {
                writeln!(f, "deadlock at cycle {cycle}: all live threads blocked")?;
                for (loc, b) in waiting {
                    writeln!(f, "  {loc} waiting on {b}")?;
                }
                // Per-barrier waiter counts, in full.
                let mut counts: Vec<(BarrierId, usize)> = Vec::new();
                for (_, b) in waiting {
                    match counts.iter_mut().find(|(id, _)| id == b) {
                        Some((_, n)) => *n += 1,
                        None => counts.push((*b, 1)),
                    }
                }
                counts.sort_by_key(|&(b, _)| b.0);
                writeln!(f, "waiters per barrier:")?;
                for (b, n) in counts {
                    writeln!(f, "  {b}: {n} waiter(s)")?;
                }
                if !barriers.is_empty() {
                    writeln!(f, "barrier registers:")?;
                    for s in barriers {
                        writeln!(
                            f,
                            "  {}: participants={:#x} waiting={:#x}",
                            s.barrier, s.participants, s.waiters
                        )?;
                    }
                }
                match recon {
                    ReconDump::BarrierFile => {}
                    ReconDump::IpdomStack { stack } => {
                        writeln!(f, "ipdom reconvergence stack (top first):")?;
                        if stack.is_empty() {
                            writeln!(f, "  (empty)")?;
                        }
                        for e in stack {
                            match e.rpc {
                                Some(rpc) => write!(f, "  rpc=pc{rpc}:")?,
                                None => write!(f, "  rpc=<function exit>:")?,
                            }
                            writeln!(f, " pending={:#x} arrived={:#x}", e.pending, e.arrived)?;
                        }
                    }
                    ReconDump::WarpSplit { splits } => {
                        writeln!(f, "warp splits:")?;
                        for s in splits {
                            match s.pc {
                                Some(pc) => write!(f, "  pc{pc}:")?,
                                None => write!(f, "  <blocked>:")?,
                            }
                            writeln!(f, " mask={:#x} busy_until={}", s.mask, s.busy_until)?;
                        }
                    }
                }
                Ok(())
            }
            SimError::MaxCyclesExceeded { limit } => {
                write!(f, "exceeded the configured limit of {limit} cycles")
            }
            SimError::Cancelled { cycle } => {
                write!(f, "run cancelled at cycle {cycle}")
            }
            SimError::MemoryFault { at, addr, size, space } => write!(
                f,
                "{at}: out-of-range {} access at address {addr} (size {size})",
                space.keyword()
            ),
            SimError::Arithmetic { at, message } => write!(f, "{at}: {message}"),
            SimError::UnresolvedCall { at, callee } => {
                write!(f, "{at}: unresolved call to @{callee} (run Module::resolve_calls)")
            }
            SimError::InvalidModule(msg) => write!(f, "invalid module: {msg}"),
            SimError::SweepUnsupported { reason } => {
                write!(f, "seed sweep unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let loc = ThreadLocation { warp: 1, lane: 3, func: FuncId(0), block: BlockId(2), inst: 4 };
        let e =
            SimError::MemoryFault { at: loc, addr: -5, size: 16, space: simt_ir::MemSpace::Global };
        let s = e.to_string();
        assert!(s.contains("warp 1 lane 3"));
        assert!(s.contains("-5"));
        assert!(s.contains("global"));
    }

    #[test]
    fn deadlock_display_reports_all_waiters() {
        let loc = ThreadLocation { warp: 0, lane: 0, func: FuncId(0), block: BlockId(0), inst: 0 };
        let mut waiting = vec![(loc, BarrierId(0)); 12];
        waiting.push((loc, BarrierId(2)));
        let e = SimError::Deadlock {
            cycle: 10,
            waiting,
            barriers: Vec::new(),
            recon: ReconDump::BarrierFile,
        };
        let s = e.to_string();
        assert_eq!(s.matches("waiting on").count(), 13, "no waiter is elided:\n{s}");
        assert!(!s.contains("more"), "the old 8-waiter cap is gone:\n{s}");
        assert!(s.contains("b0: 12 waiter(s)"), "{s}");
        assert!(s.contains("b2: 1 waiter(s)"), "{s}");
    }

    #[test]
    fn deadlock_display_dumps_barrier_registers() {
        let loc = ThreadLocation { warp: 0, lane: 3, func: FuncId(0), block: BlockId(1), inst: 2 };
        let e = SimError::Deadlock {
            cycle: 99,
            waiting: vec![(loc, BarrierId(1))],
            barriers: vec![BarrierState {
                barrier: BarrierId(1),
                participants: 0b1111,
                waiters: 0b1000,
            }],
            recon: ReconDump::BarrierFile,
        };
        let s = e.to_string();
        assert!(s.contains("barrier registers:"), "{s}");
        assert!(s.contains("b1: participants=0xf waiting=0x8"), "{s}");
    }

    #[test]
    fn deadlock_display_dumps_ipdom_stack() {
        let loc = ThreadLocation { warp: 0, lane: 0, func: FuncId(0), block: BlockId(0), inst: 0 };
        let e = SimError::Deadlock {
            cycle: 7,
            waiting: vec![(loc, BarrierId(0))],
            barriers: Vec::new(),
            recon: ReconDump::IpdomStack {
                stack: vec![
                    StackEntryDump { rpc: Some(12), pending: 0b0011, arrived: 0b0100 },
                    StackEntryDump { rpc: None, pending: 0b1000, arrived: 0 },
                ],
            },
        };
        let s = e.to_string();
        assert!(s.contains("ipdom reconvergence stack"), "{s}");
        assert!(s.contains("rpc=pc12: pending=0x3 arrived=0x4"), "{s}");
        assert!(s.contains("rpc=<function exit>: pending=0x8"), "{s}");
        // No misleading empty barrier dump alongside it.
        assert!(!s.contains("barrier registers:"), "{s}");
    }

    #[test]
    fn deadlock_display_dumps_warp_splits() {
        let loc = ThreadLocation { warp: 0, lane: 0, func: FuncId(0), block: BlockId(0), inst: 0 };
        let e = SimError::Deadlock {
            cycle: 7,
            waiting: vec![(loc, BarrierId(0))],
            barriers: Vec::new(),
            recon: ReconDump::WarpSplit {
                splits: vec![
                    SplitDump { pc: Some(4), mask: 0b0011, busy_until: 90 },
                    SplitDump { pc: None, mask: 0b1100, busy_until: 0 },
                ],
            },
        };
        let s = e.to_string();
        assert!(s.contains("warp splits:"), "{s}");
        assert!(s.contains("pc4: mask=0x3 busy_until=90"), "{s}");
        assert!(s.contains("<blocked>: mask=0xc"), "{s}");
    }
}
