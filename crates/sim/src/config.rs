//! Simulator configuration: machine shape, scheduler policy, and the
//! instruction cost model.

use crate::error::SimError;
use crate::journal::JournalConfig;
use simt_ir::{BinOp, Inst, UnOp};

/// Which runnable PC-group the warp scheduler issues next when a warp has
/// diverged.
///
/// With correct barrier placement every policy produces the same kernel
/// *results*; the policy only affects interleaving and therefore cycle
/// counts. The `ablate-sched` bench compares them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// Keep issuing for the group issued last until it blocks, exits, or
    /// splits; then fall back to the smallest-PC group. This models a real
    /// warp scheduler, which runs an active mask until a divergence or
    /// synchronization event rather than interleaving per instruction —
    /// without it, divergent paths would drift into alignment "for free"
    /// and the baseline would look better than hardware. Default.
    #[default]
    Greedy,
    /// Issue the group with the smallest (function, block, instruction)
    /// triple. Favors threads earlier in the program — stragglers make
    /// progress toward barriers.
    MinPc,
    /// Issue the group with the largest PC triple.
    MaxPc,
    /// Issue the group with the most active lanes (ties broken by MinPc).
    MostThreads,
    /// Rotate through groups round-robin across issue slots.
    RoundRobin,
}

/// How the machine repairs control divergence — the hardware side of the
/// reconvergence design space.
///
/// The paper evaluates compiler repair (Speculative Reconvergence) on
/// fixed Volta silicon; this axis models the *hardware* alternatives so
/// the two can be crossed. See `docs/ENGINE.md` ("reconvergence models")
/// for the exact semantics of each model and how it interacts with the
/// compiler's soft barriers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReconvergenceModel {
    /// Volta-style convergence-barrier register file: compiler-placed
    /// `join`/`wait`/`cancel` masks drive reconvergence. Today's
    /// behavior, bit-identical to every pre-axis release. Default.
    #[default]
    BarrierFile,
    /// Classic per-warp IPDOM reconvergence stack (pre-Volta hardware):
    /// a divergent branch pushes its arms at the branch's immediate
    /// post-dominator (computed from the decoded CFG), the taken arm
    /// executes first, and the entry pops when every pending lane
    /// arrives. Compiler soft-barriers are *ignored* — this hardware
    /// has no barrier register file, so SR's delayed-reconvergence
    /// repair cannot take hold.
    IpdomStack,
    /// DWR-style warp splitting (Lashgar et al., arXiv 1208.2374):
    /// divergent `(pc, mask)` groups become independently schedulable
    /// splits that re-fuse when their frontiers re-align. The barrier
    /// register file stays real, so compiler repair composes with
    /// hardware splitting.
    WarpSplit {
        /// Re-fusion window in cycles: a ready split defers its issue
        /// slot when another split with the same frontier pc becomes
        /// ready within this many cycles (0 = never wait).
        window: u32,
        /// Subwarp compaction: every ready split issues each round
        /// (models compaction hardware filling idle subwarp slots)
        /// instead of one split per warp per round.
        compact: bool,
    },
}

#[cfg(test)]
impl SchedulerPolicy {
    /// Every policy, for the unit tests that must hold under each.
    pub(crate) const ALL: [SchedulerPolicy; 5] = [
        SchedulerPolicy::Greedy,
        SchedulerPolicy::MinPc,
        SchedulerPolicy::MaxPc,
        SchedulerPolicy::MostThreads,
        SchedulerPolicy::RoundRobin,
    ];
}

impl SchedulerPolicy {
    /// Parses a policy name: `greedy` | `minpc` | `maxpc` | `mostthreads`
    /// | `roundrobin`, the multi-word ones also hyphenated (`min-pc`). An
    /// unknown name is an error listing the accepted ones.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "greedy" => Ok(Self::Greedy),
            "minpc" | "min-pc" => Ok(Self::MinPc),
            "maxpc" | "max-pc" => Ok(Self::MaxPc),
            "mostthreads" | "most-threads" => Ok(Self::MostThreads),
            "roundrobin" | "round-robin" => Ok(Self::RoundRobin),
            other => Err(format!(
                "unknown policy {other:?} (greedy | minpc | maxpc | mostthreads | roundrobin)"
            )),
        }
    }
}

impl ReconvergenceModel {
    /// Parses a spec string: `barrier-file` | `ipdom-stack` |
    /// `warp-split[:window=N[,compact]]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unrecognized token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        match spec {
            "barrier-file" => return Ok(Self::BarrierFile),
            "ipdom-stack" => return Ok(Self::IpdomStack),
            "warp-split" => return Ok(Self::WarpSplit { window: 0, compact: false }),
            _ => {}
        }
        let Some(opts) = spec.strip_prefix("warp-split:") else {
            return Err(format!(
                "unknown reconvergence model `{spec}` \
                 (barrier-file | ipdom-stack | warp-split[:window=N[,compact]])"
            ));
        };
        let mut window = 0u32;
        let mut compact = false;
        for tok in opts.split(',') {
            let tok = tok.trim();
            if tok == "compact" {
                compact = true;
            } else if let Some(v) = tok.strip_prefix("window=") {
                window =
                    v.parse().map_err(|_| format!("warp-split window `{v}` is not a number"))?;
            } else {
                return Err(format!("unknown warp-split option `{tok}` (window=N | compact)"));
            }
        }
        Ok(Self::WarpSplit { window, compact })
    }

    /// Canonical spec string of the model (`parse` round-trips it).
    pub fn spec(&self) -> String {
        match self {
            Self::BarrierFile => "barrier-file".to_string(),
            Self::IpdomStack => "ipdom-stack".to_string(),
            Self::WarpSplit { window: 0, compact: false } => "warp-split".to_string(),
            Self::WarpSplit { window, compact } => {
                let mut s = format!("warp-split:window={window}");
                if *compact {
                    s.push_str(",compact");
                }
                s
            }
        }
    }
}

/// Per-instruction issue costs, in cycles.
///
/// These are *throughput* costs for one warp-instruction issue: when a warp
/// diverges into `k` groups, each group pays the cost, so divergence
/// lengthens execution proportionally — the effect the paper measures.
/// Defaults are loosely modelled on Volta-class latencies, compressed to
/// keep simulations fast; only *relative* costs matter for the shapes of
/// the paper's figures.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyModel {
    /// Simple integer ALU ops, moves, selects.
    pub alu: u32,
    /// Integer multiply/divide and all float arithmetic.
    pub mul_div: u32,
    /// Transcendentals (sqrt/exp/log).
    pub sfu: u32,
    /// Per-thread RNG advance.
    pub rng: u32,
    /// Base cost of a global memory access (fully coalesced).
    pub mem_base: u32,
    /// Extra cost per additional 128-byte segment touched by the access.
    pub mem_segment: u32,
    /// Local (per-thread) memory access.
    pub mem_local: u32,
    /// Atomic read-modify-write.
    pub atomic: u32,
    /// Barrier bookkeeping ops (join/cancel/rejoin/copy/arrived).
    pub barrier: u32,
    /// Control flow (branch/jump) and `wait` issue cost.
    pub control: u32,
    /// Call / return overhead.
    pub call: u32,
    /// Bytes per memory cell, used by the coalescing model.
    pub cell_bytes: u32,
    /// Segment size in bytes for the coalescing model.
    pub segment_bytes: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            alu: 1,
            mul_div: 2,
            sfu: 4,
            rng: 3,
            mem_base: 8,
            mem_segment: 2,
            mem_local: 2,
            atomic: 10,
            barrier: 1,
            control: 1,
            call: 2,
            cell_bytes: 8,
            segment_bytes: 128,
        }
    }
}

impl LatencyModel {
    /// Issue cost of an instruction, excluding the address-dependent
    /// coalescing component of global accesses (added by the machine).
    pub fn issue_cost(&self, inst: &Inst) -> u32 {
        match inst {
            Inst::Bin { op, .. } => match op {
                BinOp::Mul | BinOp::Div | BinOp::Rem => self.mul_div,
                _ => self.alu,
            },
            Inst::Un { op, .. } => match op {
                UnOp::Sqrt | UnOp::Exp | UnOp::Log => self.sfu,
                _ => self.alu,
            },
            Inst::Mov { .. } | Inst::Sel { .. } | Inst::Special { .. } | Inst::Vote { .. } => {
                self.alu
            }
            Inst::Rng { .. } | Inst::SeedRng { .. } => self.rng,
            Inst::Load { space, .. } | Inst::Store { space, .. } => match space {
                simt_ir::MemSpace::Global => self.mem_base,
                simt_ir::MemSpace::Local => self.mem_local,
            },
            Inst::AtomicAdd { .. } => self.atomic,
            Inst::Call { .. } => self.call,
            Inst::Barrier(_) | Inst::SyncThreads => self.barrier,
            Inst::Work { amount } => (*amount).max(1),
            Inst::Nop => 1,
        }
    }

    /// Number of `segment_bytes` segments touched by the given cell
    /// addresses (the coalescing model).
    pub fn segments(&self, addrs: &[i64]) -> u32 {
        let mut scratch = Vec::new();
        self.segments_in(addrs, &mut scratch)
    }

    /// Allocation-free [`segments`](Self::segments): the caller supplies
    /// a reusable scratch buffer (cleared here, capacity retained). The
    /// executor's hot loop calls this once per global access, so the
    /// buffer must not be rebuilt per call.
    pub fn segments_in(&self, addrs: &[i64], scratch: &mut Vec<i64>) -> u32 {
        let cells_per_seg = (self.segment_bytes / self.cell_bytes).max(1) as i64;
        // Linear dedup instead of sort+dedup: accesses touch few unique
        // segments (a coalesced warp touches one or two), so scanning the
        // short unique list per address beats sorting the address vector.
        // Segment geometry is a power of two in practice; an arithmetic
        // shift is floor division, sparing a hardware divide per lane.
        scratch.clear();
        if cells_per_seg.count_ones() == 1 {
            let shift = cells_per_seg.trailing_zeros();
            for &a in addrs {
                let seg = a >> shift;
                if !scratch.contains(&seg) {
                    scratch.push(seg);
                }
            }
        } else {
            for &a in addrs {
                let seg = a.div_euclid(cells_per_seg);
                if !scratch.contains(&seg) {
                    scratch.push(seg);
                }
            }
        }
        scratch.len() as u32
    }
}

/// Machine shape and execution limits.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Lanes per warp (the paper's machine has 32); launches reject
    /// anything outside `1..=64`.
    pub warp_width: usize,
    /// Scheduler policy for divergent warps.
    pub scheduler: SchedulerPolicy,
    /// Cost model.
    pub latency: LatencyModel,
    /// Abort after this many cycles (guards against livelock in buggy
    /// kernels).
    pub max_cycles: u64,
    /// Record a full issue trace (costs memory; off by default).
    pub trace: bool,
    /// Collect a per-block execution profile (cheap; off by default).
    /// Feed the result into the §4.5 detector for profile-guided scoring.
    pub profile: bool,
    /// Optional memory-hierarchy cost model (off by default; affects
    /// timing only, never values): cache levels over DRAM, with
    /// [`MemHierarchy::l1`](crate::mem::MemHierarchy::l1) as the
    /// single-level L1 — the "caching behavior" §4.5 says static
    /// profitability analysis cannot see.
    pub mem: Option<crate::mem::MemHierarchy>,
    /// Record a structured divergence-event journal (off by default).
    /// Like tracing, this disables straight-line batching — events carry
    /// issue cycles — so leave it off for timing-sensitive runs.
    pub journal: Option<JournalConfig>,
    /// Hardware reconvergence model. The default, [`ReconvergenceModel::BarrierFile`],
    /// is bit-identical to every pre-axis release; the other models are
    /// timing models only — values never change. Every model batches
    /// straight-line code alike: an issue whose group is the warp's whole
    /// schedulable set (under the IPDOM stack the top entry's pending
    /// lanes, under warp-split the sole split with runnable lanes) runs
    /// ahead while its pick provably repeats.
    pub recon: ReconvergenceModel,
    /// Decode the final global memory into
    /// [`SimOutput::global_mem`](crate::SimOutput::global_mem) (on by
    /// default). Callers that read only metrics turn it off: the output's
    /// memory is then empty, and nothing else about the run changes.
    pub final_mem: bool,
}

impl SimConfig {
    /// Rejects a warp width no engine can run: lane masks are `u64`s,
    /// and a warp without lanes would "finish" having run nothing.
    pub(crate) fn check_warp_width(&self) -> Result<(), SimError> {
        if (1..=64).contains(&self.warp_width) {
            return Ok(());
        }
        Err(SimError::InvalidModule(format!(
            "warp width {} is outside the supported 1..=64 lanes",
            self.warp_width
        )))
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warp_width: 32,
            scheduler: SchedulerPolicy::default(),
            latency: LatencyModel::default(),
            max_cycles: 500_000_000,
            trace: false,
            profile: false,
            mem: None,
            journal: None,
            recon: ReconvergenceModel::default(),
            final_mem: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_ir::{MemSpace, Operand, Reg};

    #[test]
    fn issue_costs_follow_classes() {
        let lat = LatencyModel::default();
        let add = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(0),
            lhs: Operand::imm_i64(0),
            rhs: Operand::imm_i64(0),
        };
        let mul = Inst::Bin {
            op: BinOp::Mul,
            dst: Reg(0),
            lhs: Operand::imm_i64(0),
            rhs: Operand::imm_i64(0),
        };
        assert!(lat.issue_cost(&add) < lat.issue_cost(&mul));
        let work = Inst::Work { amount: 40 };
        assert_eq!(lat.issue_cost(&work), 40);
        let ld = Inst::Load { dst: Reg(0), space: MemSpace::Global, addr: Operand::imm_i64(0) };
        assert_eq!(lat.issue_cost(&ld), lat.mem_base);
    }

    #[test]
    fn coalescing_counts_segments() {
        let lat = LatencyModel::default();
        // 16 cells of 8 bytes per 128-byte segment.
        assert_eq!(lat.segments(&(0..16).collect::<Vec<_>>()), 1);
        assert_eq!(lat.segments(&(0..32).collect::<Vec<_>>()), 2);
        // Fully scattered: one segment per lane.
        let scattered: Vec<i64> = (0..32).map(|i| i * 1000).collect();
        assert_eq!(lat.segments(&scattered), 32);
        // Negative addresses do not panic (validated elsewhere).
        assert_eq!(lat.segments(&[-1, 0]), 2);
    }

    #[test]
    fn work_cost_is_at_least_one() {
        let lat = LatencyModel::default();
        assert_eq!(lat.issue_cost(&Inst::Work { amount: 0 }), 1);
    }

    #[test]
    fn recon_model_specs_round_trip() {
        let cases = [
            ("barrier-file", ReconvergenceModel::BarrierFile),
            ("ipdom-stack", ReconvergenceModel::IpdomStack),
            ("warp-split", ReconvergenceModel::WarpSplit { window: 0, compact: false }),
            ("warp-split:window=8", ReconvergenceModel::WarpSplit { window: 8, compact: false }),
            (
                "warp-split:window=4,compact",
                ReconvergenceModel::WarpSplit { window: 4, compact: true },
            ),
        ];
        for (spec, want) in cases {
            let got = ReconvergenceModel::parse(spec).expect(spec);
            assert_eq!(got, want, "{spec}");
            assert_eq!(ReconvergenceModel::parse(&got.spec()).unwrap(), want, "{spec} round-trip");
        }
        // `compact` alone is valid too.
        assert_eq!(
            ReconvergenceModel::parse("warp-split:compact").unwrap(),
            ReconvergenceModel::WarpSplit { window: 0, compact: true },
        );
    }

    #[test]
    fn recon_model_rejects_unknown_specs() {
        for bad in ["volta", "warp-split:gap=3", "warp-split:window=x", "ipdom"] {
            let err = ReconvergenceModel::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}");
        }
    }

    #[test]
    fn scheduler_policy_parses_every_spelling() {
        let cases = [
            ("greedy", SchedulerPolicy::Greedy),
            ("minpc", SchedulerPolicy::MinPc),
            ("min-pc", SchedulerPolicy::MinPc),
            ("maxpc", SchedulerPolicy::MaxPc),
            ("max-pc", SchedulerPolicy::MaxPc),
            ("mostthreads", SchedulerPolicy::MostThreads),
            ("most-threads", SchedulerPolicy::MostThreads),
            ("roundrobin", SchedulerPolicy::RoundRobin),
            ("round-robin", SchedulerPolicy::RoundRobin),
        ];
        for (name, want) in cases {
            assert_eq!(SchedulerPolicy::parse(name), Ok(want), "{name}");
        }
        // Every policy has a spelling.
        for p in SchedulerPolicy::ALL {
            assert!(cases.iter().any(|&(_, q)| q == p), "{p:?}");
        }
        for bad in ["fifo", "MinPc", "min_pc", " greedy", ""] {
            let err = SchedulerPolicy::parse(bad).unwrap_err();
            assert!(err.contains("unknown policy"), "{bad}: {err}");
        }
    }

    #[test]
    fn default_config_uses_barrier_file() {
        assert_eq!(SimConfig::default().recon, ReconvergenceModel::BarrierFile);
    }
}
