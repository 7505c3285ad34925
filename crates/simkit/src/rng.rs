//! Deterministic random source.
//!
//! [`DetRng`] wraps a seeded PRNG and exposes exactly the distributions the
//! substrates need, so downstream crates never touch raw generator state
//! and every scenario is reproducible from a single `u64` seed.
//!
//! The generator is a self-contained xoshiro256++ seeded through
//! SplitMix64 — no external dependency, identical streams on every
//! platform, which is what keeps the benchmark tables reproducible in
//! hermetic (offline) builds.

use crate::hash::mix64;
use crate::time::SimDuration;

/// SplitMix64 step; used for seeding so that nearby seeds (0, 1, 2, …)
/// still yield well-separated xoshiro states.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z
}

/// A deterministic random number generator (xoshiro256++).
///
/// ```
/// use simkit::DetRng;
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent child generator; used to give each node its
    /// own stream so adding a node never perturbs the others.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(s)
    }

    /// Stateless derivation of a component stream from `(seed, salt)` —
    /// unlike [`DetRng::fork`] it consumes no parent state, so the
    /// result is a pure function of its arguments. The sharded engine
    /// builds per-actor streams this way, which is what keeps random
    /// draws independent of registration order and of the physical
    /// partition layout.
    pub fn derive(seed: u64, salt: u64) -> DetRng {
        let mut sm = seed;
        let a = splitmix64(&mut sm);
        let mut sm2 = salt ^ 0xD6E8_FEB8_6659_FD93;
        let b = splitmix64(&mut sm2);
        DetRng::new(a ^ b.rotate_left(17))
    }

    /// The deterministic stream of a logical actor: a pure function of
    /// `(seed, actor)`, independent of which physical shard hosts it.
    pub fn for_actor(seed: u64, actor: crate::shard::ActorId) -> DetRng {
        DetRng::derive(seed, 0xAC70_0000_0000_0000 ^ actor.0)
    }

    /// Next raw 64-bit value.
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

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "range_f64 requires lo < hi");
        lo + self.unit() * (hi - lo)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64 requires lo < hi");
        let span = hi - lo;
        // Multiply-shift bounded generation (Lemire, without the bias
        // rejection loop: for simulation purposes the ≤2⁻⁶⁴·span bias is
        // irrelevant, and staying loop-free keeps the stream advancing by
        // exactly one draw per call — important for reproducibility).
        let wide = (self.next_u64() as u128).wrapping_mul(span as u128);
        lo + (wide >> 64) as u64
    }

    /// Uniform index in `[0, len)`, for picking an element of a slice.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index requires a non-empty range");
        self.range_u64(0, len as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Gaussian sample (Box–Muller).
    pub fn gauss(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Box–Muller transform; one sample per call keeps the stream simple.
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal sample parameterized by its *median* and the σ of the
    /// underlying normal. Used for the heavy-tailed UMTS latency model
    /// (the paper saw 703–2766 ms around a ~1473 ms mean).
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0`.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(median > 0.0, "lognormal median must be positive");
        (self.gauss(median.ln(), sigma)).exp()
    }

    /// Exponential sample with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * (1.0 - self.unit()).ln()
    }

    /// A duration jittered uniformly within `±fraction` of `base`.
    pub fn jitter(&mut self, base: SimDuration, fraction: f64) -> SimDuration {
        let f = fraction.clamp(0.0, 1.0);
        if f == 0.0 {
            return base;
        }
        let scale = self.range_f64(1.0 - f, 1.0 + f);
        SimDuration::from_secs_f64(base.as_secs_f64() * scale)
    }

    /// A duration drawn from a Gaussian with the given mean and standard
    /// deviation, truncated at zero.
    pub fn gauss_duration(&mut self, mean: SimDuration, std_dev: SimDuration) -> SimDuration {
        let v = self.gauss(mean.as_secs_f64(), std_dev.as_secs_f64());
        SimDuration::from_secs_f64(v.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn unit_in_range() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gauss_moments() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gauss(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_median_close() {
        let mut r = DetRng::new(13);
        let mut samples: Vec<f64> = (0..10_001).map(|_| r.lognormal(100.0, 0.5)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 100.0).abs() < 8.0, "median {median}");
        assert!(samples.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn exp_mean_close() {
        let mut r = DetRng::new(17);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(19);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn jitter_bounds() {
        let mut r = DetRng::new(23);
        let base = SimDuration::from_millis(100);
        for _ in 0..500 {
            let j = r.jitter(base, 0.2);
            assert!(j >= SimDuration::from_millis(80) && j <= SimDuration::from_millis(120));
        }
        assert_eq!(r.jitter(base, 0.0), base);
    }

    #[test]
    fn gauss_duration_never_negative() {
        let mut r = DetRng::new(29);
        for _ in 0..1000 {
            let d = r.gauss_duration(SimDuration::from_millis(1), SimDuration::from_millis(10));
            assert!(d.as_secs_f64() >= 0.0);
        }
    }

    #[test]
    fn derive_is_pure_and_separates_salts() {
        let a1 = DetRng::derive(5, 100).next_u64();
        let a2 = DetRng::derive(5, 100).next_u64();
        assert_eq!(a1, a2, "derive must be a pure function");
        let mut x = DetRng::derive(5, 100);
        let mut y = DetRng::derive(5, 101);
        let same = (0..32).filter(|_| x.next_u64() == y.next_u64()).count();
        assert!(same < 2, "adjacent salts must yield independent streams");
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = DetRng::new(31);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }
}
