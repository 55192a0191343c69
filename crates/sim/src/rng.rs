//! Per-thread deterministic RNG.
//!
//! Each thread owns a SplitMix64 stream seeded from the launch seed and
//! its global thread id, so results are reproducible across scheduler
//! policies and compiler transforms — a property the test suite relies on
//! to check that Speculative Reconvergence never changes kernel output.

/// SplitMix64: tiny, fast, and statistically adequate for workload
/// modelling (not for cryptography).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Creates the canonical per-thread stream for a launch.
    pub fn for_thread(launch_seed: u64, tid: u64) -> Self {
        // Mix the tid in through one splitmix step so adjacent tids do not
        // produce correlated streams.
        let mut s = Self::new(launch_seed ^ tid.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        s.next_u64();
        s
    }

    /// Creates the stream for thread `tid` of instance `instance` of a
    /// seed sweep starting at `seed_lo`.
    ///
    /// Defined as exactly the stream a standalone launch with seed
    /// `seed_lo + instance` gives the thread — the sweep engine's
    /// bit-identity contract hinges on this equality, and a test pins
    /// it.
    pub fn for_sweep_instance(seed_lo: u64, instance: u64, tid: u64) -> Self {
        Self::for_thread(seed_lo.wrapping_add(instance), tid)
    }

    /// The stream `seed_rng` installs from its operand's integer value
    /// `v` (the cohort; the oracle spells it out as the spec).
    pub(crate) fn for_seed_rng(v: i64) -> Self {
        let v = v as u64;
        Self::for_thread(v ^ 0x5EED, v) // stream domain separator
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next non-negative 63-bit integer.
    pub fn next_u63(&mut self) -> i64 {
        (self.next_u64() >> 1) as i64
    }

    /// Next uniform float in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::for_thread(42, 7);
        let mut b = SplitMix64::for_thread(42, 7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_tids_decorrelate() {
        let mut a = SplitMix64::for_thread(42, 0);
        let mut b = SplitMix64::for_thread(42, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_values_in_range_and_spread() {
        let mut r = SplitMix64::new(1);
        let mut below_half = 0;
        for _ in 0..1000 {
            let v = r.next_unit();
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                below_half += 1;
            }
        }
        assert!((350..650).contains(&below_half), "suspicious spread: {below_half}");
    }

    #[test]
    fn sweep_instance_stream_equals_standalone_launch_stream() {
        for inst in [0u64, 1, 7, 63] {
            let mut sweep = SplitMix64::for_sweep_instance(100, inst, 5);
            let mut standalone = SplitMix64::for_thread(100 + inst, 5);
            for _ in 0..8 {
                assert_eq!(sweep.next_u64(), standalone.next_u64());
            }
        }
    }

    #[test]
    fn u63_is_non_negative() {
        let mut r = SplitMix64::new(3);
        for _ in 0..100 {
            assert!(r.next_u63() >= 0);
        }
    }
}
