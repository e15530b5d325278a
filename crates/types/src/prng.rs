//! Deterministic pseudo-random number generation.
//!
//! Every stochastic decision in the workspace (trace synthesis, address
//! streams, branch outcome patterns) flows through [`Prng`], a
//! xoshiro256**-style generator seeded via SplitMix64. Implementing the ~30
//! lines in-tree keeps the simulator's determinism independent of the `rand`
//! crate's unspecified `StdRng` algorithm, which may change between
//! releases; `rand` is still used in tests as an independent reference.

/// A xoshiro256** pseudo-random generator.
///
/// Fast (a few ALU ops per draw), 256 bits of state, and more than adequate
/// statistical quality for workload synthesis. Not cryptographic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Create a generator from a seed. Any seed, including zero, produces a
    /// well-mixed state thanks to the SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Prng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derive an independent stream from this seed and a stream label.
    /// Used to give each thread / each aspect (addresses, branches, mixes)
    /// of a synthetic trace its own decorrelated sequence.
    pub fn derive(seed: u64, stream: u64) -> Self {
        Prng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The raw 256-bit state, for checkpointing a generator mid-stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Resume a generator from a [`Prng::state`] snapshot. The all-zero
    /// state is a fixed point of xoshiro (every draw is 0) and no seeded
    /// generator ever reaches it, so it is refused.
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        (s != [0; 4]).then_some(Prng { s })
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit draw (upper half of a 64-bit draw, which has the best
    /// bits in xoshiro**).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Uses the widening-multiply method (Lemire); the tiny modulo bias is
    /// irrelevant for workload synthesis.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Sample an index from a discrete distribution given by `weights`.
    /// Returns the last index if the weights are all zero.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return weights.len().saturating_sub(1);
        }
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Geometric-ish draw: returns `k >= 1` with `P(k) ∝ (1-p)^(k-1) p`,
    /// capped at `max`. Used for dependency distances and burst lengths.
    pub fn geometric(&mut self, p: f64, max: u64) -> u64 {
        let p = p.clamp(1e-9, 1.0);
        let mut k = 1;
        while k < max && !self.chance(p) {
            k += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_snapshot_resumes_the_stream() {
        let mut a = Prng::new(11);
        a.next_u64();
        let mut b = Prng::from_state(a.state()).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(Prng::from_state([0; 4]).is_none());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_decorrelated() {
        let mut a = Prng::derive(7, 0);
        let mut b = Prng::derive(7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut p = Prng::new(99);
        for bound in [1u64, 2, 3, 10, 1000, u32::MAX as u64] {
            for _ in 0..200 {
                assert!(p.below(bound) < bound);
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut p = Prng::new(5);
        for _ in 0..10_000 {
            let x = p.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut p = Prng::new(6);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| p.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut p = Prng::new(7);
        let n = 100_000;
        let hits = (0..n).filter(|_| p.chance(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut p = Prng::new(8);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[p.weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio={ratio}");
    }

    #[test]
    fn weighted_all_zero_returns_last() {
        let mut p = Prng::new(9);
        assert_eq!(p.weighted(&[0.0, 0.0, 0.0]), 2);
    }

    #[test]
    fn geometric_bounds() {
        let mut p = Prng::new(10);
        for _ in 0..1000 {
            let k = p.geometric(0.5, 8);
            assert!((1..=8).contains(&k));
        }
        // p = 1 always returns 1.
        assert_eq!(p.geometric(1.0, 100), 1);
    }

    #[test]
    fn geometric_mean_tracks_parameter() {
        let mut p = Prng::new(11);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| p.geometric(0.25, 1000)).sum();
        let mean = sum as f64 / n as f64;
        // E[k] = 1/p = 4.
        assert!((mean - 4.0).abs() < 0.15, "mean={mean}");
    }
}
