//! The one observer both engines record through.
//!
//! What a run shows of itself beyond its metrics is three optional
//! collectors: the issue [`Trace`] (the lane cartoons of the paper's
//! Figures 1 and 3), the per-block [`Profile`] (§4.5's profitability
//! feedback) and the divergence [`Journal`] (the reconvergence moments).
//! A scalar launch (the one-slot cohort of [`crate::sweep`], behind
//! [`crate::exec`]) and the tree-walking oracle ([`crate::reference`])
//! make one call per recording site, so what is
//! recorded, and when, is written here once; the control plane
//! ([`crate::barrier::WarpCtl`]) reports its transitions as
//! [`JournalKind`]s, which [`Observer::event`] stamps.

use crate::config::{ReconvergenceModel, SimConfig};
use crate::decode::PcOrigin;
use crate::journal::{Journal, JournalEvent, JournalKind};
use crate::machine::{EngineStats, SimOutput};
use crate::mem::AccessOutcome;
use crate::metrics::Metrics;
use crate::profile::Profile;
use crate::trace::{Trace, TraceEvent};
use simt_ir::{BarrierId, Value};

/// A run's trace, profile and journal, each present when its
/// [`SimConfig`] knob is on.
#[derive(Default)]
pub(crate) struct Observer {
    trace: Option<Trace>,
    profile: Option<Profile>,
    journal: Option<Journal>,
    /// Whether a pick that strictly grows the group issued last is a
    /// merge: not under warp-split, whose rounds pick among splits.
    merges: bool,
}

impl Observer {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Self {
            trace: cfg.trace.then(|| Trace::new(cfg.warp_width)),
            profile: cfg.profile.then(Profile::new),
            journal: cfg.journal.as_ref().map(Journal::new),
            merges: !matches!(cfg.recon, ReconvergenceModel::WarpSplit { .. }),
        }
    }

    /// Whether an issue's record carries its cycle (tracing or journaling
    /// is on). Running ahead would misstamp it, so the engine does not
    /// batch then.
    pub(crate) fn stamps_issues(&self) -> bool {
        self.trace.is_some() || self.journal.is_some()
    }

    /// One issue in a round of its own: the profile's record and the
    /// trace's event.
    #[inline]
    pub(crate) fn issue(
        &mut self,
        cycle: u64,
        warp: usize,
        at: PcOrigin,
        mask: u64,
        cost: u32,
        roi: bool,
    ) {
        self.batched(at, mask, cost);
        if let Some(trace) = &mut self.trace {
            let (func, block, inst) = (at.func, at.block, at.inst as usize);
            trace.push(TraceEvent { cycle, warp, func, block, inst, mask, cost, roi });
        }
    }

    /// One issue run ahead inside a batch: the profile's record (nothing
    /// that stamps issues is on while a batch runs).
    #[inline]
    pub(crate) fn batched(&mut self, at: PcOrigin, mask: u64, cost: u32) {
        if let Some(profile) = &mut self.profile {
            profile.record(at.func, at.block, at.inst as usize, mask.count_ones().into(), cost);
        }
    }

    /// The journal's split of [`Metrics::stall_cycles`] by barrier, taken
    /// before an issue executes: one stalled lane-issue for each lane
    /// parked on a barrier, `parked` naming the barrier of each.
    #[inline]
    pub(crate) fn waits(&mut self, parked: impl Iterator<Item = BarrierId>) {
        if let Some(journal) = &mut self.journal {
            for b in parked {
                journal.note_stall(b, 1);
            }
        }
    }

    /// A global access's memory-hierarchy outcome: an MSHR penalty is a
    /// `MemStall` event at its deepest-penalty level and the penalty
    /// cycles of the access's block.
    pub(crate) fn mem(&mut self, cycle: u64, warp: usize, at: PcOrigin, out: &AccessOutcome) {
        let stall = out.total_stall();
        if stall == 0 {
            return;
        }
        if let Some(profile) = &mut self.profile {
            profile.record_mem_stall(at.func, at.block, stall);
        }
        let level = out.levels.iter().position(|l| l.mshr_stall == stall).unwrap_or(0);
        self.event(cycle, warp, JournalKind::MemStall { level, stall });
    }

    /// A pick of `mask` at `at` after the group `last` issued: a
    /// `GroupMerge` when it strictly grows that group — straggler lanes
    /// reached the same pc and merged back in.
    #[inline]
    pub(crate) fn pick(&mut self, cycle: u64, warp: usize, at: PcOrigin, last: u64, mask: u64) {
        if self.merges && last != 0 && mask != last && mask & last == last {
            let (func, block, inst, absorbed) = (at.func, at.block, at.inst as usize, mask & !last);
            self.event(cycle, warp, JournalKind::GroupMerge { func, block, inst, mask, absorbed });
        }
    }

    /// Any other journal event, stamped with its cycle and warp.
    #[inline]
    pub(crate) fn event(&mut self, cycle: u64, warp: usize, kind: JournalKind) {
        if let Some(journal) = &mut self.journal {
            journal.push(JournalEvent { cycle, warp, kind });
        }
    }

    /// A finished run's output: what was observed beside its metrics,
    /// engine counters and final memory.
    pub(crate) fn finish(
        self,
        metrics: Metrics,
        engine: EngineStats,
        global_mem: Vec<Value>,
    ) -> SimOutput {
        let Observer { trace, profile, journal, .. } = self;
        SimOutput { metrics, engine, global_mem, trace, profile, journal }
    }
}
