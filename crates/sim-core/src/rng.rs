//! Deterministic pseudo-random number generation.
//!
//! All stochastic behaviour in the simulator — workload think times, address
//! streams, scheduler tie-breaking — flows from a [`DetRng`] seeded by the
//! experiment configuration, so every run is reproducible bit-for-bit.
//!
//! The generator is xoshiro256** (public domain construction by Blackman &
//! Vigna), implemented locally so the substrate carries no external RNG
//! dependency and its streams stay stable across toolchain updates.

/// A deterministic, splittable pseudo-random generator (xoshiro256**).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        // SplitMix64 cannot produce an all-zero state from any seed, but keep
        // the invariant explicit: xoshiro must never be seeded all-zero.
        debug_assert!(s.iter().any(|&w| w != 0));
        DetRng { s }
    }

    /// Derives an independent child generator; used to give each simulated
    /// thread or workload component its own stream.
    pub fn split(&mut self, tag: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection method: unbiased and fast.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (bound.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi, "range lo must be <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with the given probability of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// Geometric-ish "burst length": samples an exponential with the given
    /// mean, clamped to at least 1. Used for think times and burst sizes.
    pub fn exp_u64(&mut self, mean: f64) -> u64 {
        let u = self.unit_f64().max(f64::MIN_POSITIVE);
        let v = -mean * u.ln();
        (v.round() as u64).max(1)
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Samples an index from a discrete distribution given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[u64]) -> usize {
        let total: u64 = weights.iter().sum();
        assert!(
            total > 0,
            "weighted_index needs a non-empty, non-zero weight set"
        );
        let mut pick = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                return i;
            }
            pick -= w;
        }
        unreachable!("weights summed to total; pick < total")
    }
}

impl DetRng {
    /// Fills `dest` with pseudo-random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = DetRng::new(9);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let v = r.range(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = DetRng::new(5);
        let mut a = parent.split(1);
        let mut b = parent.split(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let mut r = DetRng::new(13);
        for _ in 0..500 {
            let i = r.weighted_index(&[0, 5, 0, 5]);
            assert!(i == 1 || i == 3);
        }
    }

    #[test]
    fn exp_u64_has_roughly_right_mean() {
        let mut r = DetRng::new(17);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.exp_u64(100.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((80.0..120.0).contains(&mean), "mean was {mean}");
    }

    #[test]
    fn rngcore_fill_bytes_covers_partial_chunks() {
        let mut r = DetRng::new(19);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
