//! The structured divergence-event journal.
//!
//! The issue trace ([`crate::trace`]) records *what was issued*; the
//! journal records *why the warp's shape changed*: branch divergence
//! (with taken/not-taken masks), barrier traffic (join/wait/cancel and
//! the releases that reconverge a warp), `__syncthreads` arrivals and
//! releases, group merges (the scheduler reabsorbing a straggler group —
//! the paper's reconvergence moment), and deadlock onset. Both execution
//! engines — a scalar launch ([`crate::exec::run_image`], the one-slot
//! cohort of [`crate::sweep`]) and the tree-walking oracle in
//! [`crate::reference`] — emit bit-identical journals, which the
//! differential proptest enforces.
//!
//! Events flow into a bounded ring buffer: once
//! [`JournalConfig::capacity`] is reached the oldest event is dropped
//! (and counted), so arbitrarily long runs cannot OOM. Callers that need
//! every event stream them through the optional
//! [`JournalConfig::writer`] callback, which observes each event at
//! record time — including events a terminal error (deadlock) would
//! otherwise take down with the machine.
//!
//! Independent of the ring buffer, the journal accumulates per-barrier
//! attribution ([`BarrierStats`]): how many lane-joins/waits/cancels
//! each barrier register saw, how many releases it performed, and how
//! many lane-issues were spent parked on it (the same sampling as
//! [`crate::Metrics::stall_cycles`], split by barrier) — the "which
//! barrier costs the efficiency" readout.

use simt_ir::{BarrierId, BlockId, FuncId};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// One divergence-relevant event, in issue order.
///
/// `cycle` is the issue cycle of the instruction that caused the event
/// (releases carry the cycle of the issue that completed the barrier);
/// `warp` is the warp index. What happened is the [`JournalKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// Issue cycle.
    pub cycle: u64,
    /// Warp index.
    pub warp: usize,
    /// What happened.
    pub kind: JournalKind,
}

/// What a [`JournalEvent`] records. All masks are lane bitmasks of the
/// event's warp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalKind {
    /// A branch split its group: some lanes took the branch, some did
    /// not. Only emitted when both masks are non-empty.
    BranchDiverge {
        /// Function containing the branch.
        func: FuncId,
        /// Block whose terminator branched.
        block: BlockId,
        /// Instruction index of the branch.
        inst: usize,
        /// Lanes that took the branch.
        taken: u64,
        /// Lanes that fell through.
        not_taken: u64,
    },
    /// Lanes joined (or re-joined) a convergence barrier.
    BarrierJoin {
        /// Barrier register.
        barrier: BarrierId,
        /// Lanes that joined.
        mask: u64,
    },
    /// Lanes cancelled their barrier participation (an escape edge).
    BarrierCancel {
        /// Barrier register.
        barrier: BarrierId,
        /// Lanes that cancelled.
        mask: u64,
    },
    /// Lanes blocked at a barrier wait.
    BarrierWait {
        /// Barrier register.
        barrier: BarrierId,
        /// Lanes that blocked.
        mask: u64,
    },
    /// A barrier released its waiters together — reconvergence.
    BarrierRelease {
        /// Barrier register.
        barrier: BarrierId,
        /// Lanes released.
        mask: u64,
    },
    /// Lanes arrived at `__syncthreads`.
    SyncArrive {
        /// Lanes that arrived.
        mask: u64,
    },
    /// A `__syncthreads` cohort released.
    SyncRelease {
        /// Lanes released.
        mask: u64,
    },
    /// The scheduler picked a group that strictly contains the lanes it
    /// issued last: straggler lanes reached the same PC and merged back
    /// in (reconvergence by PC collision rather than by barrier).
    GroupMerge {
        /// Function at the merge point.
        func: FuncId,
        /// Block at the merge point.
        block: BlockId,
        /// Instruction index at the merge point.
        inst: usize,
        /// The merged group's full mask.
        mask: u64,
        /// The lanes newly absorbed into the group.
        absorbed: u64,
    },
    /// Every live thread of the warp is blocked on a barrier that can
    /// never release; the run terminates with
    /// [`crate::SimError::Deadlock`] right after this event. The ring
    /// buffer is lost with the failed run, so this is primarily a
    /// [`JournalConfig::writer`] signal.
    DeadlockOnset,
    /// A global access paid an MSHR penalty (merge wait or full-file
    /// stall) under the memory-hierarchy cost model.
    MemStall {
        /// Deepest-penalty cache level (0 = L1).
        level: usize,
        /// Penalty cycles folded into the access cost.
        stall: u32,
    },
}

impl JournalKind {
    /// A stable kebab-case name for the event kind (used by exporters).
    pub fn name(&self) -> &'static str {
        match self {
            JournalKind::BranchDiverge { .. } => "branch-diverge",
            JournalKind::BarrierJoin { .. } => "barrier-join",
            JournalKind::BarrierCancel { .. } => "barrier-cancel",
            JournalKind::BarrierWait { .. } => "barrier-wait",
            JournalKind::BarrierRelease { .. } => "barrier-release",
            JournalKind::SyncArrive { .. } => "sync-arrive",
            JournalKind::SyncRelease { .. } => "sync-release",
            JournalKind::GroupMerge { .. } => "group-merge",
            JournalKind::DeadlockOnset => "deadlock-onset",
            JournalKind::MemStall { .. } => "mem-stall",
        }
    }
}

/// Per-barrier attribution counters, accumulated for the whole run
/// regardless of ring-buffer eviction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Lane-joins recorded (`join`/`rejoin` bits).
    pub joins: u64,
    /// Lane-waits recorded (lanes that blocked on the barrier).
    pub waits: u64,
    /// Lane-cancels recorded.
    pub cancels: u64,
    /// Releases performed (each reconverges one waiting cohort).
    pub releases: u64,
    /// Total lanes released across all releases.
    pub released_lanes: u64,
    /// Lane-issues spent parked on this barrier: on every issue of the
    /// warp, each lane waiting here adds one. Summed over barriers this
    /// equals [`crate::Metrics::stall_cycles`] — the journal splits that
    /// aggregate by barrier.
    pub stall_issues: u64,
}

/// A caller-supplied sink that observes every event at record time,
/// before ring-buffer eviction can drop it. Must be `Send + Sync`: batch
/// runs execute on worker threads.
pub type JournalWriter = Arc<dyn Fn(&JournalEvent) + Send + Sync>;

/// Knobs for the journal, set via [`crate::SimConfig::journal`].
#[derive(Clone)]
pub struct JournalConfig {
    /// Ring-buffer capacity in events; the oldest event is dropped (and
    /// counted in [`Journal::dropped`]) once the buffer is full.
    pub capacity: usize,
    /// Optional streaming sink; see [`JournalWriter`].
    pub writer: Option<JournalWriter>,
}

/// Default ring capacity: enough for every event of a mid-sized run, and
/// a few MiB at worst.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

impl Default for JournalConfig {
    fn default() -> Self {
        Self { capacity: DEFAULT_JOURNAL_CAPACITY, writer: None }
    }
}

impl fmt::Debug for JournalConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalConfig")
            .field("capacity", &self.capacity)
            .field("writer", &self.writer.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

// `SimConfig` derives `PartialEq`; two journal configs compare equal when
// they would journal identically — same capacity, same writer identity
// (callbacks are compared by pointer, the only meaningful notion for an
// opaque closure).
impl PartialEq for JournalConfig {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && match (&self.writer, &other.writer) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

/// The recorded journal of one run: a bounded event ring plus always-on
/// per-barrier attribution.
#[derive(Clone, Default)]
pub struct Journal {
    events: VecDeque<JournalEvent>,
    capacity: usize,
    dropped: u64,
    recorded: u64,
    barrier_stats: Vec<BarrierStats>,
    writer: Option<JournalWriter>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("events", &self.events)
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .field("recorded", &self.recorded)
            .field("barrier_stats", &self.barrier_stats)
            .field("writer", &self.writer.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

// Journals from the two engines are compared by the differential tests;
// the writer callback is not part of the recorded data.
impl PartialEq for Journal {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
            && self.capacity == other.capacity
            && self.dropped == other.dropped
            && self.recorded == other.recorded
            && self.barrier_stats == other.barrier_stats
    }
}

impl Journal {
    /// Creates an empty journal with the given knobs.
    pub fn new(cfg: &JournalConfig) -> Self {
        Self {
            events: VecDeque::new(),
            capacity: cfg.capacity.max(1),
            dropped: 0,
            recorded: 0,
            barrier_stats: Vec::new(),
            writer: cfg.writer.clone(),
        }
    }

    /// Records one event: streams it to the writer (if any), folds it
    /// into the barrier attribution, and appends it to the ring —
    /// evicting the oldest event when full.
    pub fn push(&mut self, e: JournalEvent) {
        if let Some(w) = &self.writer {
            w(&e);
        }
        match e.kind {
            JournalKind::BarrierJoin { barrier, mask } => {
                self.stat_mut(barrier).joins += u64::from(mask.count_ones());
            }
            JournalKind::BarrierCancel { barrier, mask } => {
                self.stat_mut(barrier).cancels += u64::from(mask.count_ones());
            }
            JournalKind::BarrierWait { barrier, mask } => {
                self.stat_mut(barrier).waits += u64::from(mask.count_ones());
            }
            JournalKind::BarrierRelease { barrier, mask } => {
                let s = self.stat_mut(barrier);
                s.releases += 1;
                s.released_lanes += u64::from(mask.count_ones());
            }
            _ => {}
        }
        self.recorded += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }

    /// Attributes `lanes` stalled lane-issues to barrier `b` (sampled by
    /// the engines at each issue, like [`crate::Metrics::stall_cycles`]).
    pub fn note_stall(&mut self, b: BarrierId, lanes: u32) {
        self.stat_mut(b).stall_issues += u64::from(lanes);
    }

    fn stat_mut(&mut self, b: BarrierId) -> &mut BarrierStats {
        let i = b.index();
        if i >= self.barrier_stats.len() {
            self.barrier_stats.resize(i + 1, BarrierStats::default());
        }
        &mut self.barrier_stats[i]
    }

    /// The retained events, oldest first. When [`Self::dropped`] is
    /// non-zero this is the *tail* of the run.
    pub fn events(&self) -> impl Iterator<Item = &JournalEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring (recorded but no longer retained).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events recorded over the run (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Per-barrier attribution, indexed by barrier id. Only barriers
    /// that saw traffic (or stalls) have entries; the vector is as long
    /// as the highest such id + 1.
    pub fn barrier_stats(&self) -> &[BarrierStats] {
        &self.barrier_stats
    }

    /// Renders a per-barrier attribution table plus event-kind counts,
    /// for diagnostics.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "journal: {} event(s) recorded, {} retained, {} dropped",
            self.recorded,
            self.events.len(),
            self.dropped
        );
        let mut kinds: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            match kinds.iter_mut().find(|(k, _)| *k == e.kind.name()) {
                Some((_, n)) => *n += 1,
                None => kinds.push((e.kind.name(), 1)),
            }
        }
        kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (k, n) in kinds {
            let _ = writeln!(out, "  {n:>8}  {k}");
        }
        if self.barrier_stats.iter().any(|s| *s != BarrierStats::default()) {
            let _ = writeln!(out, "per-barrier attribution:");
            for (i, s) in self.barrier_stats.iter().enumerate() {
                if *s == BarrierStats::default() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  b{i}: {} join(s), {} wait(s), {} cancel(s), {} release(s) \
                     ({} lanes), {} stalled lane-issues",
                    s.joins, s.waits, s.cancels, s.releases, s.released_lanes, s.stall_issues
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn at(cycle: u64, kind: JournalKind) -> JournalEvent {
        JournalEvent { cycle, warp: 0, kind }
    }

    fn join(cycle: u64, b: u32, mask: u64) -> JournalEvent {
        at(cycle, JournalKind::BarrierJoin { barrier: BarrierId(b), mask })
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut j = Journal::new(&JournalConfig { capacity: 3, writer: None });
        for c in 0..5 {
            j.push(join(c, 0, 1));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 2);
        assert_eq!(j.recorded(), 5);
        let cycles: Vec<u64> = j.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest events evicted first");
        // Attribution survives eviction.
        assert_eq!(j.barrier_stats()[0].joins, 5);
    }

    #[test]
    fn writer_sees_every_event_past_capacity() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let writer: JournalWriter = Arc::new(move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        let mut j = Journal::new(&JournalConfig { capacity: 2, writer: Some(writer) });
        for c in 0..10 {
            j.push(join(c, 0, 0b11));
        }
        assert_eq!(seen.load(Ordering::Relaxed), 10);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn barrier_stats_accumulate_by_kind() {
        let mut j = Journal::new(&JournalConfig::default());
        j.push(join(0, 1, 0b1111));
        j.push(at(1, JournalKind::BarrierWait { barrier: BarrierId(1), mask: 0b11 }));
        j.push(at(2, JournalKind::BarrierCancel { barrier: BarrierId(1), mask: 0b1 }));
        j.push(at(3, JournalKind::BarrierRelease { barrier: BarrierId(1), mask: 0b11 }));
        j.note_stall(BarrierId(1), 2);
        let s = j.barrier_stats()[1];
        assert_eq!(s.joins, 4);
        assert_eq!(s.waits, 2);
        assert_eq!(s.cancels, 1);
        assert_eq!(s.releases, 1);
        assert_eq!(s.released_lanes, 2);
        assert_eq!(s.stall_issues, 2);
        // Barrier 0 saw nothing but has a (zeroed) slot.
        assert_eq!(j.barrier_stats()[0], BarrierStats::default());
        let summary = j.render_summary();
        assert!(summary.contains("b1:"));
        assert!(summary.contains("barrier-join"));
    }

    #[test]
    fn config_equality_is_by_capacity_and_writer_identity() {
        let w: JournalWriter = Arc::new(|_| {});
        let a = JournalConfig { capacity: 8, writer: Some(Arc::clone(&w)) };
        let b = JournalConfig { capacity: 8, writer: Some(w) };
        assert_eq!(a, b);
        let c = JournalConfig { capacity: 8, writer: Some(Arc::new(|_| {})) };
        assert_ne!(a, c, "distinct closures are distinct sinks");
        assert_eq!(JournalConfig::default(), JournalConfig::default());
    }
}
