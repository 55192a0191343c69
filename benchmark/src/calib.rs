//! Calibrated host time.
//!
//! The hosts this benchmark runs on are shared: for seconds or minutes at
//! a time another tenant on the same core makes every instruction stream
//! that keeps the core busy run a third slower, and two runs of one binary
//! differ by 20 to 40 %. No amount of repetition inside a run removes
//! that, because a whole run can fall into a slow period.
//!
//! So a pass of a workload is cut into segments of about [`SEGMENT_S`],
//! and every segment is bracketed by a small fixed loop with the same
//! appetite for issue slots as the simulator and the compiler (several
//! independent dependency chains, data-dependent branches, loads that hit
//! in the first-level cache). The loop slows by the same factor as the
//! segment beside it, and host time is reported as
//!
//! ```text
//! calibrated seconds = measured seconds × REFERENCE_S ÷ (loop's seconds then)
//! ```
//!
//! that is, in seconds of a host on which the loop takes `REFERENCE_S`.
//! On the host the scripts were sized on, when it is quiet, calibrated and
//! measured seconds agree.

use std::time::Instant;

/// Iterations of the loop: about 2.5 ms, short beside every pass and long
/// beside the clock's resolution.
const ROUNDS: u64 = 250_000;

/// Seconds [`spin`] takes on the reference host (Xeon at 2.1 GHz, 2 vCPU)
/// while no other tenant disturbs it: the lower decile of 2000 samples.
pub const REFERENCE_S: f64 = 0.002_60;

/// Runs the loop once and returns the seconds it took.
pub fn spin() -> f64 {
    let start = Instant::now();
    std::hint::black_box(chains(std::hint::black_box(ROUNDS)));
    start.elapsed().as_secs_f64()
}

/// Runs the loop on `threads` threads at once and returns the mean of
/// their seconds: the pace of as many cores as the `serve-*` workloads keep
/// busy, any of which another tenant may be slowing.
pub fn spin_on(threads: usize) -> f64 {
    let total: f64 = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(spin)).collect();
        spin() + others.into_iter().map(|t| t.join().expect("calibration thread")).sum::<f64>()
    });
    total / threads as f64
}

/// Factor that turns seconds measured between two runs of the loop into
/// calibrated seconds.
pub fn scale(before_s: f64, after_s: f64) -> f64 {
    REFERENCE_S / ((before_s + after_s) / 2.0)
}

/// Runs `body` as one segment, bracketed by the loop on as many threads as
/// `body` keeps busy; returns its result and the factor from the seconds
/// measured inside it to calibrated seconds.
pub fn scaled<R>(threads: usize, body: impl FnOnce() -> R) -> (R, f64) {
    let before_s = spin_on(threads);
    let result = body();
    (result, scale(before_s, spin_on(threads)))
}

/// How long a segment lasts before the loop runs again: short enough that
/// the host rarely changes pace inside one, long enough that the loop is a
/// twentieth of the run.
const SEGMENT_S: f64 = 0.05;

/// Times the calls of one pass and calibrates them segment by segment.
pub struct Meter {
    /// The loop's seconds when the open segment began.
    before_s: f64,
    segment: Instant,
    /// Latency of every call so far, in milliseconds; calibrated up to
    /// `open_from`, as measured after it.
    lat_ms: Vec<f64>,
    open_from: usize,
    calibrated_s: f64,
}

impl Meter {
    pub fn start() -> Meter {
        let before_s = spin();
        Meter {
            before_s,
            segment: Instant::now(),
            lat_ms: Vec::new(),
            open_from: 0,
            calibrated_s: 0.0,
        }
    }

    /// Runs and times one call. Whatever happens between calls (checking a
    /// result) belongs to the segment too.
    pub fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        self.lat_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if self.segment.elapsed().as_secs_f64() >= SEGMENT_S {
            self.close_segment();
        }
        result
    }

    fn close_segment(&mut self) {
        let measured_s = self.segment.elapsed().as_secs_f64();
        let after_s = spin();
        let scale = scale(self.before_s, after_s);
        self.calibrated_s += measured_s * scale;
        for lat in &mut self.lat_ms[self.open_from..] {
            *lat *= scale;
        }
        self.open_from = self.lat_ms.len();
        self.before_s = after_s;
        self.segment = Instant::now();
    }

    /// Calibrated seconds of the pass, the loop's own time left out, and
    /// the calibrated latency of every call.
    pub fn finish(mut self) -> (f64, Vec<f64>) {
        self.close_segment();
        (self.calibrated_s, self.lat_ms)
    }
}

/// Eight independent xorshift chains, each step a table load and a branch
/// on the loaded value.
#[inline(never)]
fn chains(rounds: u64) -> u64 {
    let mut table = [0u32; 1024];
    for (i, t) in table.iter_mut().enumerate() {
        *t = (i as u32).wrapping_mul(2_654_435_761) >> 7;
    }
    let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut acc = 0u64;
    for i in 0..rounds {
        for (k, x) in chains.iter_mut().enumerate() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let t = u64::from(table[(*x as usize ^ k) & 1023]);
            if t & 1 == 0 {
                acc = acc.wrapping_add(t ^ i);
            } else {
                acc ^= t.wrapping_add(*x);
            }
        }
    }
    acc ^ chains.iter().sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_does_its_work_and_takes_time() {
        assert_ne!(chains(10), chains(11));
        assert!(spin() > 0.0);
    }

    #[test]
    fn meter_calibrates_every_call_and_leaves_the_loop_out() {
        let mut meter = Meter::start();
        let wall = Instant::now();
        for _ in 0..3 {
            meter.time(|| std::thread::sleep(std::time::Duration::from_millis(30)));
        }
        let wall_s = wall.elapsed().as_secs_f64();
        let (calibrated_s, lat_ms) = meter.finish();
        assert_eq!(lat_ms.len(), 3);
        // Three sleeps cross the segment length at least once, so the loop
        // ran inside `wall_s` but is not in the calibrated time: measured
        // time of the sleeps is at most `wall_s` less one loop.
        let sum_ms: f64 = lat_ms.iter().sum();
        assert!(
            (sum_ms / 1e3 - calibrated_s).abs() < 0.02 * calibrated_s,
            "{sum_ms} ms vs {calibrated_s} s"
        );
        assert!(calibrated_s > 0.0 && wall_s > 0.09);
    }

    #[test]
    fn scale_is_one_on_the_reference_host_and_shrinks_slow_periods() {
        assert!((scale(REFERENCE_S, REFERENCE_S) - 1.0).abs() < 1e-12);
        // A loop half as fast means the pass beside it took twice too long.
        assert!((scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    }
}
