//! Execution metrics: SIMT efficiency, cycles, and instruction mix.
//!
//! SIMT efficiency follows the paper's (and nvprof's) definition: the
//! average fraction of active lanes per issued warp-instruction. A
//! per-region variant restricted to blocks tagged `roi` reports efficiency
//! inside the "Expensive()" code the transformations target.

use crate::counters;
use std::fmt;

/// Aggregated execution metrics for one launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Total cycles until the last warp finished.
    pub cycles: u64,
    /// Warp-instruction issues.
    pub issues: u64,
    /// Sum over issues of active lanes, weighted by issue cost in cycles.
    ///
    /// Cost weighting compensates for the synthetic `work` instruction
    /// compressing many real instructions into one issue: a 40-cycle
    /// `work` counts like 40 single-cycle instructions would on hardware,
    /// which keeps the efficiency metric comparable to nvprof's
    /// per-instruction definition.
    pub active_lane_sum: u64,
    /// Sum over issues of issue cost (the denominator weight).
    pub issue_weight: u64,
    /// Cost-weighted issue weight inside region-of-interest blocks.
    pub roi_issues: u64,
    /// Cost-weighted active-lane sum inside region-of-interest blocks.
    pub roi_active_lane_sum: u64,
    /// Lane-issues spent blocked on a convergence barrier: on each issue,
    /// the number of lanes sitting in a waiting state is accumulated —
    /// an idle-bubble pressure indicator (how much of the warp the
    /// reconvergence policy keeps parked).
    pub stall_cycles: u64,
    /// Dynamic count of barrier operations executed (per-lane).
    pub barrier_ops: u64,
    /// Per-level memory-hierarchy counters (hits, misses, MSHR merges
    /// and stall cycles per cache level, plus DRAM traffic). All zero
    /// unless [`SimConfig::mem`](crate::config::SimConfig::mem) is set.
    pub mem: crate::mem::MemStats,
    /// Hardware-reconvergence counters (IPDOM stack activity, warp
    /// splits and re-fusions). All zero under the default
    /// [`ReconvergenceModel::BarrierFile`](crate::config::ReconvergenceModel::BarrierFile).
    pub recon: crate::recon::ReconStats,
    /// Dynamic count of all lane-instructions executed.
    pub lane_insts: u64,
    /// Per-warp (cost-weighted issues, cost-weighted active-lane sum).
    pub per_warp: Vec<(u64, u64)>,
    /// Lanes per warp this launch used.
    pub warp_width: usize,
}

impl Metrics {
    /// Creates zeroed metrics for the given shape.
    pub fn new(num_warps: usize, warp_width: usize) -> Self {
        Self { per_warp: vec![(0, 0); num_warps], warp_width, ..Self::default() }
    }

    /// Overall SIMT efficiency in `[0, 1]` (cost-weighted average fraction
    /// of active lanes per issued warp-instruction).
    pub fn simt_efficiency(&self) -> f64 {
        if self.issue_weight == 0 {
            return 1.0;
        }
        self.active_lane_sum as f64 / (self.issue_weight as f64 * self.warp_width as f64)
    }

    /// SIMT efficiency restricted to region-of-interest blocks.
    pub fn roi_simt_efficiency(&self) -> f64 {
        if self.roi_issues == 0 {
            return 1.0;
        }
        self.roi_active_lane_sum as f64 / (self.roi_issues as f64 * self.warp_width as f64)
    }

    /// Records `n` warp-instruction issues of warp `warp` by one lane
    /// mask — one round issue, or a straight-line batch — whose costs
    /// sum to `weight`, `roi_weight` of it inside region-of-interest
    /// blocks.
    ///
    /// This is the hot-loop accounting path: everything derives from
    /// `mask.count_ones()`, and every counter sums a term linear in each
    /// issue's cost, so one call per batch adds exactly what one call per
    /// issue would. `waiting_lanes` is the number of lanes parked on a
    /// convergence barrier at issue time (the stall-bubble indicator),
    /// sampled *before* the first issue executes, as the reference
    /// engine does; the issues of a batch never change it.
    #[inline]
    pub(crate) fn record_issues(
        &mut self,
        warp: usize,
        mask: u64,
        n: u64,
        weight: u64,
        roi_weight: u64,
        waiting_lanes: u32,
    ) {
        let active = u64::from(mask.count_ones());
        self.issues += n;
        self.issue_weight += weight;
        self.active_lane_sum += active * weight;
        self.lane_insts += active * n;
        self.stall_cycles += u64::from(waiting_lanes) * n;
        self.roi_issues += roi_weight;
        self.roi_active_lane_sum += active * roi_weight;
        let pw = &mut self.per_warp[warp];
        pw.0 += weight;
        pw.1 += active * weight;
    }

    /// Field-wise combination of two snapshots of one launch shape — the
    /// sweep engine's per-slot base arithmetic: `f` on every event count
    /// (`u64::wrapping_add` to apply a base, `u64::wrapping_sub` to take
    /// one), `max` on the high-water marks ([`counters::combine`]).
    /// `warp_width` is kept from `self`. The destructuring is
    /// exhaustive on purpose: a field added to [`Metrics`] fails to
    /// compile here until it is handled.
    pub(crate) fn combine(
        &self,
        o: &Metrics,
        f: fn(u64, u64) -> u64,
        max: fn(u64, u64) -> u64,
    ) -> Metrics {
        let Metrics {
            cycles,
            issues,
            active_lane_sum,
            issue_weight,
            roi_issues,
            roi_active_lane_sum,
            stall_cycles,
            barrier_ops,
            mem,
            recon,
            lane_insts,
            per_warp,
            warp_width,
        } = self;
        Metrics {
            cycles: f(*cycles, o.cycles),
            issues: f(*issues, o.issues),
            active_lane_sum: f(*active_lane_sum, o.active_lane_sum),
            issue_weight: f(*issue_weight, o.issue_weight),
            roi_issues: f(*roi_issues, o.roi_issues),
            roi_active_lane_sum: f(*roi_active_lane_sum, o.roi_active_lane_sum),
            stall_cycles: f(*stall_cycles, o.stall_cycles),
            barrier_ops: f(*barrier_ops, o.barrier_ops),
            mem: counters::combine(mem, &o.mem, f, max),
            recon: counters::combine(recon, &o.recon, f, max),
            lane_insts: f(*lane_insts, o.lane_insts),
            per_warp: per_warp
                .iter()
                .zip(&o.per_warp)
                .map(|(a, b)| (f(a.0, b.0), f(a.1, b.1)))
                .collect(),
            warp_width: *warp_width,
        }
    }

    /// SIMT efficiency of one warp.
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    pub fn warp_simt_efficiency(&self, warp: usize) -> f64 {
        let (issues, active) = self.per_warp[warp];
        if issues == 0 {
            return 1.0;
        }
        active as f64 / (issues as f64 * self.warp_width as f64)
    }

    /// Cost-weighted lane-cycles lost to divergence: the gap between a
    /// fully-converged run of the same issues and what actually executed.
    /// The absolute quantity the efficiency ratio hides — attribution
    /// reports rank by it.
    pub fn lost_lane_weight(&self) -> u64 {
        (self.issue_weight * self.warp_width as u64).saturating_sub(self.active_lane_sum)
    }

    /// Per-warp [`lost_lane_weight`](Self::lost_lane_weight).
    ///
    /// # Panics
    ///
    /// Panics if `warp` is out of range.
    pub fn warp_lost_lane_weight(&self, warp: usize) -> u64 {
        let (issues, active) = self.per_warp[warp];
        (issues * self.warp_width as u64).saturating_sub(active)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:           {}", self.cycles)?;
        writeln!(f, "issues:           {}", self.issues)?;
        writeln!(f, "lane insts:       {}", self.lane_insts)?;
        writeln!(f, "SIMT efficiency:  {:.1}%", self.simt_efficiency() * 100.0)?;
        writeln!(f, "ROI efficiency:   {:.1}%", self.roi_simt_efficiency() * 100.0)?;
        writeln!(f, "stall cycles:     {}", self.stall_cycles)?;
        write!(f, "barrier ops:      {}", self.barrier_ops)?;
        if !counters::is_zero(&self.mem) {
            for (i, l) in self.mem.levels.iter().enumerate() {
                if *l == crate::mem::MemLevelStats::default() {
                    continue;
                }
                write!(
                    f,
                    "\nL{}:               {} hits, {} misses, {} mshr merges, {} mshr stall cycles",
                    i + 1,
                    l.hits,
                    l.misses,
                    l.mshr_merges,
                    l.mshr_stall_cycles
                )?;
            }
            write!(
                f,
                "\nDRAM:             {} accesses, {} segments",
                self.mem.dram_accesses, self.mem.dram_segments
            )?;
        }
        if !counters::is_zero(&self.recon) {
            let r = &self.recon;
            if r.stack_pushes != 0 || r.stack_pops != 0 || r.stack_max_depth != 0 {
                write!(
                    f,
                    "\nipdom stack:      {} pushes, {} pops, max depth {}",
                    r.stack_pushes, r.stack_pops, r.stack_max_depth
                )?;
            }
            if r.splits != 0 || r.fusions != 0 || r.deferrals != 0 {
                write!(
                    f,
                    "\nwarp splits:      {} splits, {} fusions, {} deferrals",
                    r.splits, r.fusions, r.deferrals
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_math() {
        let mut m = Metrics::new(1, 32);
        m.issues = 10;
        m.issue_weight = 10;
        m.active_lane_sum = 160; // half the lanes on average
        assert!((m.simt_efficiency() - 0.5).abs() < 1e-12);
        assert_eq!(m.roi_simt_efficiency(), 1.0); // no roi issues recorded
    }

    #[test]
    fn zero_issues_is_full_efficiency() {
        let m = Metrics::new(1, 32);
        assert_eq!(m.simt_efficiency(), 1.0);
    }

    #[test]
    fn per_warp_efficiency() {
        let mut m = Metrics::new(2, 32);
        m.per_warp[0] = (4, 128);
        m.per_warp[1] = (4, 64);
        assert!((m.warp_simt_efficiency(0) - 1.0).abs() < 1e-12);
        assert!((m.warp_simt_efficiency(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lost_lane_weight_is_the_efficiency_gap() {
        let mut m = Metrics::new(2, 32);
        m.issue_weight = 8;
        m.active_lane_sum = 192;
        m.per_warp[0] = (4, 128);
        m.per_warp[1] = (4, 64);
        assert_eq!(m.lost_lane_weight(), 8 * 32 - 192);
        assert_eq!(m.warp_lost_lane_weight(0), 0);
        assert_eq!(m.warp_lost_lane_weight(1), 64);
    }

    #[test]
    fn display_mentions_efficiency() {
        let m = Metrics::new(1, 32);
        assert!(m.to_string().contains("SIMT efficiency"));
    }
}
