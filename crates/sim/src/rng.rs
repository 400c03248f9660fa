//! Counter-based random number streams.
//!
//! A [`SimRng`] is a *counter-based* generator: output `j` of stream `i`
//! under seed `s` is a pure hash of `(s, i, j)`. Nothing about thread
//! count, chunking or evaluation order enters the computation, which is
//! what makes every experiment built on this crate bit-identical
//! regardless of how it is parallelized. Each Monte Carlo unit gets its
//! own stream, so units can be routed by any worker in any order.
//!
//! The mixing function is the SplitMix64 finalizer (Steele, Lea &
//! Flood), applied to a stream-keyed counter. It passes the statistical
//! requirements of sampling work (uniformity, independence between
//! streams) while being a handful of arithmetic instructions per draw.

/// Golden-ratio increment used by SplitMix64.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplicative inverse of [`GOLDEN`] modulo 2⁶⁴ (it is odd, so one
/// exists): `GOLDEN.wrapping_mul(GOLDEN_INV) == 1`. Lets batched
/// kernels recover a draw counter from a running mix input without a
/// division (see [`SimRng::ctr_of_mix_input`]).
const GOLDEN_INV: u64 = golden_inv();

/// Newton–Raphson 2-adic inverse: every step doubles the number of
/// correct low bits, and `x = a` starts with three (odd `a` satisfies
/// `a·a ≡ 1 (mod 8)`), so five steps reach all 64.
const fn golden_inv() -> u64 {
    let a = GOLDEN;
    let mut x = a;
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// The 64-bit finalizer from SplitMix64: a bijective avalanche mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic counter-based random stream.
///
/// # Examples
///
/// ```
/// use ipass_sim::SimRng;
///
/// let mut a = SimRng::stream(42, 7);
/// let mut b = SimRng::stream(42, 7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same (seed, stream) ⇒ same draws
///
/// let mut other = SimRng::stream(42, 8);
/// assert_ne!(a.next_u64(), other.next_u64()); // streams are independent
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    key: u64,
    ctr: u64,
}

impl SimRng {
    /// Stream 0 of `seed` — a drop-in for a plain seeded generator.
    pub fn from_seed(seed: u64) -> SimRng {
        SimRng::stream(seed, 0)
    }

    /// Stream `stream` of `seed`. Streams with different indices are
    /// statistically independent; equal `(seed, stream)` pairs reproduce
    /// the exact same draw sequence.
    #[inline]
    pub fn stream(seed: u64, stream: u64) -> SimRng {
        SimRng {
            key: mix64(seed ^ mix64(stream.wrapping_mul(GOLDEN).wrapping_add(GOLDEN))),
            ctr: 0,
        }
    }

    /// The stream's `(key, counter)` state.
    ///
    /// Batched kernels keep structure-of-arrays copies of many unit
    /// streams and walk their draws in tight loops; `state` /
    /// [`SimRng::from_state`] convert between the two representations
    /// without perturbing the draw sequence.
    #[inline]
    pub fn state(&self) -> (u64, u64) {
        (self.key, self.ctr)
    }

    /// Rebuild a stream from a `(key, counter)` pair captured by
    /// [`SimRng::state`]. The rebuilt stream continues the exact draw
    /// sequence of the captured one.
    #[inline]
    pub fn from_state(key: u64, ctr: u64) -> SimRng {
        SimRng { key, ctr }
    }

    /// The *mix input* of draw `ctr` on the stream keyed `key` — the
    /// value the SplitMix64 finalizer is applied to. Batched kernels
    /// carry this running value instead of `(key, ctr)`: consecutive
    /// draws differ by a constant stride, so advancing costs one add
    /// ([`SimRng::advance_mix_input`]) instead of a multiply, and
    /// [`SimRng::mix_to_u53`] turns it into the exact draw.
    ///
    /// `mix_input(key, 0) == key`, so a fresh stream's mix input is its
    /// key.
    #[inline]
    pub fn mix_input(key: u64, ctr: u64) -> u64 {
        key.wrapping_add(ctr.wrapping_mul(GOLDEN))
    }

    /// The mix input of the *next* draw: `advance_mix_input(mix_input
    /// (key, ctr)) == mix_input(key, ctr + 1)`.
    #[inline]
    pub fn advance_mix_input(h: u64) -> u64 {
        h.wrapping_add(GOLDEN)
    }

    /// Finalize a mix input into its 53-bit draw: `mix_to_u53(mix_input
    /// (key, ctr))` is, bit for bit, the [`SimRng::next_u53`] draw a
    /// stream at state `(key, ctr)` returns — for comparing against a
    /// precomputed [`SimRng::threshold`].
    #[inline]
    pub fn mix_to_u53(h: u64) -> u64 {
        mix64(h) >> 11
    }

    /// Recover the draw counter a running mix input stands at:
    /// `ctr_of_mix_input(key, mix_input(key, ctr)) == ctr`. Exact for
    /// every counter (multiplication by the stride's modular inverse),
    /// so a batched kernel can rebuild the [`SimRng`] of one lane
    /// element — `SimRng::from_state(key, ctr)` — when it must fall
    /// back to scalar draws.
    #[inline]
    pub fn ctr_of_mix_input(key: u64, h: u64) -> u64 {
        h.wrapping_sub(key).wrapping_mul(GOLDEN_INV)
    }

    /// The next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.key.wrapping_add(self.ctr.wrapping_mul(GOLDEN)));
        self.ctr = self.ctr.wrapping_add(1);
        out
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The raw 53-bit draw underlying [`SimRng::next_f64`], for callers
    /// that compare against a precomputed [`SimRng::threshold`].
    ///
    /// Consumes exactly one draw, like `next_f64`.
    #[inline]
    pub fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Precompute the integer threshold equivalent to a Bernoulli
    /// probability: for `p` strictly inside `(0, 1)`,
    /// `rng.next_u53() < SimRng::threshold(p)` decides **exactly** like
    /// `rng.next_f64() < p` (hence like [`SimRng::bernoulli`]), while
    /// replacing the int→float conversion and float compare of every
    /// draw with one integer compare.
    ///
    /// Exactness: `next_f64` is `x · 2⁻⁵³` for the integer draw
    /// `x < 2⁵³`, and both `x · 2⁻⁵³` and `p · 2⁵³` are exact in `f64`
    /// (scaling by a power of two only shifts the exponent), so
    /// `x · 2⁻⁵³ < p  ⇔  x < p · 2⁵³  ⇔  x < ⌈p · 2⁵³⌉`.
    ///
    /// Degenerate probabilities (`p ≤ 0`, `p ≥ 1`) must be handled
    /// structurally by the caller — [`SimRng::bernoulli`] consumes no
    /// draw for them, which a threshold compare cannot reproduce.
    #[inline]
    pub fn threshold(p: f64) -> u64 {
        debug_assert!(p > 0.0 && p < 1.0, "degenerate probability {p}");
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// A Bernoulli trial with success probability `p`.
    ///
    /// Degenerate probabilities (`p ≤ 0`, `p ≥ 1`) short-circuit without
    /// consuming a draw, so adding certain events to a flow does not
    /// shift the stream of the uncertain ones.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            true
        } else if p <= 0.0 {
            false
        } else {
            self.next_f64() < p
        }
    }

    /// A uniform draw in `[lo, hi)` (or exactly `lo` when the interval is
    /// empty).
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform integer draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty integer range {lo}..{hi}");
        // Multiply-shift rejection-free mapping; the bias is < 2⁻⁶⁴ per
        // draw, far below Monte Carlo noise.
        let span = hi - lo;
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// A uniform `usize` draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A normal draw with the given mean and standard deviation
    /// (Box–Muller; consumes two uniforms).
    pub fn normal(&mut self, mean: f64, sigma: f64) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + sigma * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_reproduce_and_differ() {
        let seq = |seed, stream| {
            let mut r = SimRng::stream(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(seq(1, 0), seq(1, 0));
        assert_ne!(seq(1, 0), seq(1, 1));
        assert_ne!(seq(1, 0), seq(2, 0));
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SimRng::from_seed(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn unit_interval_bounds() {
        let mut r = SimRng::from_seed(9);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut r = SimRng::from_seed(11);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn threshold_compare_is_exactly_bernoulli() {
        // The integer-threshold decision must agree with the float
        // compare on every draw, including probabilities right at the
        // representation edges.
        let ps = [
            0.5,
            0.3,
            0.999,
            1e-12,
            1.0 - 1e-12,
            0.9999f64.powi(112),
            f64::MIN_POSITIVE,
        ];
        for &p in &ps {
            let t = SimRng::threshold(p);
            let mut a = SimRng::from_seed(77);
            let mut b = SimRng::from_seed(77);
            for _ in 0..10_000 {
                assert_eq!(a.next_u53() < t, b.next_f64() < p, "p = {p}");
            }
        }
    }

    #[test]
    fn bernoulli_degenerate_consumes_no_draw() {
        let mut a = SimRng::from_seed(5);
        let mut b = SimRng::from_seed(5);
        assert!(a.bernoulli(1.0));
        assert!(!a.bernoulli(0.0));
        assert!(a.bernoulli(1.5));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn integer_range_covers_and_respects_bounds() {
        let mut r = SimRng::from_seed(7);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            let v = r.range_usize(2, 8);
            assert!((2..8).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments() {
        let mut r = SimRng::from_seed(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn mix_input_walk_reproduces_raw_draws() {
        let mut r = SimRng::stream(23, 5);
        let (key, start) = r.state();
        assert_eq!(start, 0);
        assert_eq!(SimRng::mix_input(key, 0), key);
        let mut h = key;
        for j in 0..64 {
            assert_eq!(SimRng::mix_to_u53(h), r.next_u53(), "draw {j}");
            assert_eq!(SimRng::ctr_of_mix_input(key, h), j, "ctr at {j}");
            h = SimRng::advance_mix_input(h);
        }
        assert_eq!(h, SimRng::mix_input(key, 64));
    }

    #[test]
    fn golden_inverse_is_exact() {
        assert_eq!(GOLDEN.wrapping_mul(GOLDEN_INV), 1);
        // Counter recovery is exact even at wrap-around extremes.
        for ctr in [0u64, 1, u64::MAX, u64::MAX / 2, 1 << 53] {
            let h = SimRng::mix_input(99, ctr);
            assert_eq!(SimRng::ctr_of_mix_input(99, h), ctr);
        }
    }

    #[test]
    fn state_roundtrips_mid_sequence() {
        let mut a = SimRng::stream(5, 9);
        let _ = a.next_u64();
        let _ = a.next_u64();
        let (key, ctr) = a.state();
        let mut b = SimRng::from_state(key, ctr);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(a.state(), b.state());
    }
}
