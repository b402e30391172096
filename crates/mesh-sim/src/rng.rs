//! Deterministic random number generation.
//!
//! Every run of the simulator is a pure function of `(configuration, seed)`.
//! All stochastic decisions — placement, fading, backoff, jitter — draw from a
//! single [`SimRng`] in event order, so two runs with the same seed produce
//! identical traces.
//!
//! The generator is a self-contained xoshiro256++ (seeded via SplitMix64), so
//! the simulator has no external RNG dependency and its streams are stable
//! across toolchains and crate upgrades.

/// The simulator's random number generator.
///
/// A small, fast xoshiro256++ generator with helpers for the distributions
/// the simulator needs.
///
/// ```
/// use mesh_sim::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(), b.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator; used to give sub-systems
    /// (placement vs. traffic vs. channel) their own deterministic streams.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the stream label in so forks with different labels diverge even
        // when created back to back.
        let seed = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from(seed)
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of [`Self::next_u64`]).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        if lo == hi {
            lo
        } else {
            // Rounding can push `lo + u*(hi-lo)` onto `hi`; keep it exclusive.
            let x = lo + self.uniform() * (hi - lo);
            if x < hi {
                x
            } else {
                hi - (hi - lo) * f64::EPSILON
            }
        }
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased method).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform_u32(&mut self, n: u32) -> u32 {
        assert!(n > 0, "empty range");
        let mut m = u64::from(self.next_u32()) * u64::from(n);
        let mut low = m as u32;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                m = u64::from(self.next_u32()) * u64::from(n);
                low = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }
}

crate::snap_struct!(SimRng { s });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn forks_are_deterministic_and_independent() {
        let mut root1 = SimRng::seed_from(99);
        let mut root2 = SimRng::seed_from(99);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.next_u64(), f2.next_u64());

        let mut root3 = SimRng::seed_from(99);
        let mut g = root3.fork(2);
        assert_ne!(f1.next_u64(), g.next_u64());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
        assert_eq!(rng.uniform_range(4.0, 4.0), 4.0);
    }

    #[test]
    fn uniform_u32_covers_and_bounds() {
        let mut rng = SimRng::seed_from(10);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = rng.uniform_u32(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn chance_edges() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut rng = SimRng::seed_from(5);
        let hits = (0..20_000).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / 20_000.0;
        assert!((freq - 0.3).abs() < 0.02, "freq={freq}");
    }
}
