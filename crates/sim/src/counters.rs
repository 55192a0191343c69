//! One counter schema for the simulator's stats structs.
//!
//! [`MemStats`], [`ReconStats`], [`EngineStats`] and [`SweepStats`] each
//! implement [`Counters`]: one visitor that hands every field to a
//! callback with its name, help text and [`CounterKind`]. The arithmetic
//! on whole structs ([`fold`], [`combine`], [`is_zero`]) and every
//! machine-read surface — the `/v1/eval` counter objects, the Prometheus
//! series, the counter table of `docs/SERVING.md` — are generated from
//! the visitors. Each visitor destructures its struct exhaustively, so a
//! field added to a struct fails to compile until its visitor names it,
//! and from then on reaches every surface.
//!
//! The kind matters when runs are folded: an event count adds up across
//! runs, a high-water mark (the IPDOM stack's depth, the cohort's live
//! sub-cohorts) folds to the largest.

use crate::machine::EngineStats;
use crate::mem::{MemLevelStats, MemStats};
use crate::recon::ReconStats;
use crate::sweep::SweepStats;

/// How a counter folds across runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterKind {
    /// An event count: runs add up (saturating).
    Sum,
    /// A high-water mark: runs fold to the largest.
    Max,
}

/// One counter of a stats struct, as its visitor reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// Field name. A `.` nests it: `dram.accesses` is `"dram":
    /// {"accesses": …}` in JSON and `dram_accesses` in Prometheus.
    pub name: &'static str,
    /// Memory-hierarchy level (0 = L1) of a per-level counter.
    pub level: Option<usize>,
    /// What the counter counts, in one line (the Prometheus HELP text).
    pub help: &'static str,
    /// How the counter folds across runs.
    pub kind: CounterKind,
    /// The counter's value.
    pub value: u64,
}

/// A stats struct of named `u64` counters.
pub trait Counters: Copy + Default {
    /// The struct's name on every surface: the key of its `/v1/eval`
    /// object and the infix of its Prometheus series.
    const GROUP: &'static str;

    /// Calls `f` once per counter, always in the same order, with the
    /// counter (its value read from `self`), `self`'s field and `other`'s
    /// same field.
    fn zip<F: FnMut(Counter, &mut u64, u64)>(&mut self, other: &Self, f: F);

    /// Calls `f` with every counter of `self`, in the visitor's order.
    fn visit(&self, mut f: impl FnMut(Counter)) {
        let mut copy = *self;
        copy.zip(&Self::default(), |c, _, _| f(c));
    }
}

/// `a` and `b` folded counter by counter: a [`CounterKind::Sum`] adds
/// (saturating), a [`CounterKind::Max`] keeps the larger.
#[must_use]
pub fn fold<T: Counters>(a: &T, b: &T) -> T {
    let mut r = *a;
    r.zip(b, |c, x, y| {
        *x = match c.kind {
            CounterKind::Sum => x.saturating_add(y),
            CounterKind::Max => (*x).max(y),
        }
    });
    r
}

/// `a` and `b` combined field by field, a [`CounterKind::Sum`] under `sum`
/// and a [`CounterKind::Max`] under `max`: the sweep engine's per-slot
/// bases, where sums ride wrapping deltas (`u64::wrapping_add` applies
/// one, `u64::wrapping_sub` takes one) and maxima fold (`u64::max`).
#[must_use]
pub fn combine<T: Counters>(a: &T, b: &T, sum: fn(u64, u64) -> u64, max: fn(u64, u64) -> u64) -> T {
    let mut r = *a;
    r.zip(b, |c, x, y| {
        *x = match c.kind {
            CounterKind::Sum => sum(*x, y),
            CounterKind::Max => max(*x, y),
        }
    });
    r
}

/// Whether every counter of `t` is zero.
pub fn is_zero<T: Counters>(t: &T) -> bool {
    let mut zero = true;
    t.visit(|c| zero &= c.value == 0);
    zero
}

/// One line per counter: `Kind field: "help"` hands the counter, the
/// destructured binding `field` and `$o.field` to the callback `$f`,
/// named after the field or, with `field as "name"`, after `name`.
macro_rules! fields {
    ($f:ident, $o:ident, $level:expr;
     $($kind:ident $x:ident $(as $name:literal)?: $help:literal,)*) => {$(
        let (name, kind) = (fields!(@name $x $($name)?), CounterKind::$kind);
        $f(Counter { name, level: $level, help: $help, kind, value: *$x }, $x, $o.$x);
    )*};
    (@name $x:ident) => { stringify!($x) };
    (@name $x:ident $name:literal) => { $name };
}

impl Counters for MemStats {
    const GROUP: &'static str = "mem";

    fn zip<F: FnMut(Counter, &mut u64, u64)>(&mut self, o: &Self, mut f: F) {
        let MemStats { levels, dram_accesses, dram_segments } = self;
        for (i, (l, o)) in levels.iter_mut().zip(&o.levels).enumerate() {
            let MemLevelStats { hits, misses, mshr_merges, mshr_stall_cycles } = l;
            fields!(f, o, Some(i);
                Sum hits: "Cache lines hit",
                Sum misses: "Cache lines missed",
                Sum mshr_merges: "Misses merged into an in-flight MSHR entry",
                Sum mshr_stall_cycles: "MSHR penalty cycles (merge waits and full-file stalls)",
            );
        }
        fields!(f, o, None;
            Sum dram_accesses as "dram.accesses": "Global accesses that missed every cache level",
            Sum dram_segments as "dram.segments": "DRAM segments serviced",
        );
    }
}

impl Counters for ReconStats {
    const GROUP: &'static str = "recon";

    fn zip<F: FnMut(Counter, &mut u64, u64)>(&mut self, o: &Self, mut f: F) {
        let ReconStats { stack_pushes, stack_pops, stack_max_depth, splits, fusions, deferrals } =
            self;
        fields!(f, o, None;
            Sum stack_pushes: "IPDOM reconvergence-stack pushes",
            Sum stack_pops: "IPDOM reconvergence-stack pops",
            Max stack_max_depth: "Deepest IPDOM reconvergence stack of any warp",
            Sum splits: "Warp splits forked",
            Sum fusions: "Warp-split re-fusions",
            Sum deferrals: "Issue slots deferred inside the re-fusion window",
        );
    }
}

impl Counters for EngineStats {
    const GROUP: &'static str = "engine";

    fn zip<F: FnMut(Counter, &mut u64, u64)>(&mut self, o: &Self, mut f: F) {
        let EngineStats {
            rounds,
            hinted_rounds,
            batched_issues,
            general_split_rounds,
            mixed_rows,
            split_base_issues,
        } = self;
        fields!(f, o, None;
            Sum rounds: "Scheduling rounds of the decoded engine",
            Sum hinted_rounds: "Rounds picked from the previous batch's hint",
            Sum batched_issues: "Issues run ahead by the straight-line batcher",
            Sum general_split_rounds: "Warp-split rounds with something to arbitrate",
            Sum mixed_rows: "Row ops whose lanes mixed int and float operands",
            Sum split_base_issues: "Data-arm issues whose lanes sat at several frame bases",
        );
    }
}

impl Counters for SweepStats {
    const GROUP: &'static str = "sweep";

    fn zip<F: FnMut(Counter, &mut u64, u64)>(&mut self, o: &Self, mut f: F) {
        let SweepStats {
            instances,
            lockstep_issues,
            forks,
            merges,
            occupancy_sum,
            peak_subcohorts,
            scalar_steps,
            dense_rows,
            mixed_rows,
            uniform_accesses,
            scattered_accesses,
            hoisted_issues,
            lane_runs,
            per_lane_issues,
        } = self;
        fields!(f, o, None;
            Sum instances: "Seed instances swept",
            Sum lockstep_issues: "Issues executed once for a whole sub-cohort",
            Sum forks: "Sub-cohort forks",
            Sum merges: "Sub-cohort merges",
            Max peak_subcohorts: "Most sub-cohorts live at once in one cohort",
            Sum scalar_steps: "Rounds stepped by standalone scalar machines (always 0)",
            Sum dense_rows: "Operand rows evaluated by a dense typed loop",
            Sum mixed_rows: "Operand rows with an int in some slots and a float in others",
            Sum uniform_accesses: "Global accesses priced once for the sub-cohort",
            Sum scattered_accesses: "Global accesses staged, priced and moved per slot",
            Sum hoisted_issues: "Data-arm issues whose lane runs each moved as one span",
            Sum lane_runs: "Span loops run by data arms",
            Sum per_lane_issues: "Data-arm issues walked lane by lane",
            Sum occupancy_sum: "Sub-cohort widths summed over lockstep issues",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every counter of `T` set to a distinct value through its visitor.
    fn distinct<T: Counters>(base: u64) -> T {
        let mut t = T::default();
        let mut next = base;
        t.zip(&T::default(), |_, v, _| {
            next += 1;
            *v = next;
        });
        t
    }

    fn names<T: Counters>() -> Vec<(&'static str, Option<usize>)> {
        let mut out = Vec::new();
        T::default().visit(|c| out.push((c.name, c.level)));
        out
    }

    #[test]
    fn every_counter_is_visited_once() {
        /// Names are unique, and a field the visitor reached twice would
        /// read back its second value twice.
        fn check<T: Counters>() {
            let names = names::<T>();
            for (i, n) in names.iter().enumerate() {
                assert!(!names[..i].contains(n), "{}: {n:?} twice", T::GROUP);
            }
            let t = distinct::<T>(0);
            let mut values = Vec::new();
            t.visit(|c| values.push(c.value));
            assert_eq!(values, (1..=names.len() as u64).collect::<Vec<_>>(), "{}", T::GROUP);
            assert!(!is_zero(&t) && is_zero(&T::default()));
        }
        check::<MemStats>();
        check::<ReconStats>();
        check::<EngineStats>();
        check::<SweepStats>();
    }

    #[test]
    fn fold_sums_counts_and_keeps_high_water_marks() {
        let a = ReconStats { stack_pushes: 3, stack_max_depth: 2, ..ReconStats::default() };
        let b = ReconStats { stack_pushes: 4, stack_max_depth: 5, ..ReconStats::default() };
        let r = fold(&a, &b);
        assert_eq!((r.stack_pushes, r.stack_max_depth), (7, 5));
        let a = SweepStats { forks: u64::MAX, peak_subcohorts: 4, ..SweepStats::default() };
        let b = SweepStats { forks: 1, peak_subcohorts: 3, ..SweepStats::default() };
        let r = fold(&a, &b);
        assert_eq!((r.forks, r.peak_subcohorts), (u64::MAX, 4), "sums saturate");
    }

    #[test]
    fn combine_applies_and_takes_bases_field_by_field() {
        let a = distinct::<MemStats>(100);
        let b = distinct::<MemStats>(7);
        let d = combine(&a, &b, u64::wrapping_sub, u64::max);
        assert_eq!(combine(&d, &b, u64::wrapping_add, u64::max), a);
        assert_eq!(d.levels[2].mshr_stall_cycles, 93);
        let neg = combine(&b, &a, u64::wrapping_sub, u64::max).dram_segments;
        assert_eq!(neg, 93u64.wrapping_neg());
        // A high-water mark never rides the delta.
        let a = ReconStats { stack_pushes: 9, stack_max_depth: 3, ..ReconStats::default() };
        let b = ReconStats { stack_pushes: 4, stack_max_depth: 5, ..ReconStats::default() };
        let d = combine(&a, &b, u64::wrapping_sub, u64::max);
        assert_eq!((d.stack_pushes, d.stack_max_depth), (5, 5));
    }
}
