//! Streaming statistics accumulators with deterministic merge.
//!
//! All accumulators support `merge`, and the executor merges partial
//! results in fixed chunk order, so parallel runs reproduce the serial
//! result bit for bit.

/// Two-sided z value for a 95 % confidence interval.
pub const Z95: f64 = 1.959_963_984_540_054;

/// Two-sided z value for a 99 % confidence interval.
pub const Z99: f64 = 2.575_829_303_548_901;

/// Welford online mean accumulator.
///
/// # Examples
///
/// ```
/// use ipass_sim::Welford;
///
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 6.0] {
///     w.push(x);
/// }
/// assert!((w.mean() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Welford {
        Welford::default()
    }

    /// Record one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
    }

    /// Merge another accumulator into this one (Chan et al. pairwise
    /// update). Merging in a fixed order is deterministic.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }

    /// Running mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Success/trial counter with binomial confidence intervals.
///
/// # Examples
///
/// ```
/// use ipass_sim::{BinomialTally, Z95};
///
/// let mut t = BinomialTally::new();
/// for i in 0..1000 {
///     t.push(i % 4 != 0);
/// }
/// assert!((t.fraction() - 0.75).abs() < 1e-12);
/// assert!(t.wilson_half_width(Z95) < 0.03);
/// let (lo, hi) = t.wilson_interval(Z95);
/// assert!(lo < 0.75 && 0.75 < hi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinomialTally {
    trials: u64,
    successes: u64,
}

impl BinomialTally {
    /// An empty tally.
    pub fn new() -> BinomialTally {
        BinomialTally::default()
    }

    /// A tally from pre-counted trials.
    ///
    /// # Panics
    ///
    /// Panics when `successes > trials`.
    pub fn from_counts(trials: u64, successes: u64) -> BinomialTally {
        assert!(
            successes <= trials,
            "successes {successes} exceed trials {trials}"
        );
        BinomialTally { trials, successes }
    }

    /// A tally from floating-point counts (as accumulated by engines
    /// that count in `f64`).
    ///
    /// Counts are rounded to the nearest integer **explicitly** — an
    /// `as u64` cast would silently truncate (and map negative values
    /// to 0), hiding accumulator corruption.
    ///
    /// # Panics
    ///
    /// Panics when either count is negative, not finite, or when
    /// (rounded) `successes > trials`.
    pub fn from_f64_counts(trials: f64, successes: f64) -> BinomialTally {
        assert!(
            trials.is_finite() && trials >= 0.0,
            "trial count must be a non-negative finite number, got {trials}"
        );
        assert!(
            successes.is_finite() && successes >= 0.0,
            "success count must be a non-negative finite number, got {successes}"
        );
        BinomialTally::from_counts(trials.round() as u64, successes.round() as u64)
    }

    /// Record one trial.
    #[inline]
    pub fn push(&mut self, success: bool) {
        self.trials += 1;
        self.successes += u64::from(success);
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &BinomialTally) {
        self.trials += other.trials;
        self.successes += other.successes;
    }

    /// Trials recorded.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Successes recorded.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Success fraction (0 for an empty tally).
    pub fn fraction(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Half width of the [Wilson interval](BinomialTally::wilson_interval)
    /// — the right width for stopping rules, since unlike the
    /// normal-approximation (Wald) width it does not collapse to zero
    /// while every trial is still landing on the same side.
    pub fn wilson_half_width(&self, z: f64) -> f64 {
        if self.trials == 0 {
            return f64::INFINITY;
        }
        let (lo, hi) = self.wilson_interval(z);
        (hi - lo) / 2.0
    }

    /// Wilson score interval — well behaved near 0 and 1, where the Wald
    /// interval collapses.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let n = self.trials as f64;
        let p = self.fraction();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
        // Pin the degenerate tallies exactly; rounding in `center − half`
        // can otherwise push the bound past the observed fraction.
        let lo = if self.successes == 0 {
            0.0
        } else {
            (center - half).max(0.0)
        };
        let hi = if self.successes == self.trials {
            1.0
        } else {
            (center + half).min(1.0)
        };
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..400] {
            left.push(x);
        }
        for &x in &xs[400..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(3.0);
        w.push(5.0);
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn binomial_half_width_shrinks_with_n() {
        let mut small = BinomialTally::new();
        let mut large = BinomialTally::new();
        for i in 0..100 {
            small.push(i % 2 == 0);
        }
        for i in 0..10_000 {
            large.push(i % 2 == 0);
        }
        assert!(large.wilson_half_width(Z95) < small.wilson_half_width(Z95));
        assert!(small.wilson_half_width(Z95) < 0.11);
    }

    #[test]
    fn wilson_handles_extremes() {
        let mut t = BinomialTally::new();
        for _ in 0..50 {
            t.push(true);
        }
        let (lo, hi) = t.wilson_interval(Z95);
        assert!(hi <= 1.0 && lo > 0.8, "({lo}, {hi})");
        assert!(BinomialTally::new().wilson_half_width(Z95).is_infinite());
        assert_eq!(BinomialTally::new().wilson_interval(Z95), (0.0, 1.0));
    }
}
