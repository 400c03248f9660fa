//! Tolerance models and value sampling for Monte Carlo analyses.

use ipass_sim::SimRng;
use std::fmt;

/// A symmetric relative tolerance, e.g. `Tolerance::percent(15.0)` for
/// ±15 %.
///
/// # Examples
///
/// ```
/// use ipass_passives::Tolerance;
///
/// let t = Tolerance::percent(15.0);
/// assert!((t.fraction() - 0.15).abs() < 1e-12);
/// assert_eq!(t.to_string(), "±15%");
/// let (lo, hi) = t.bounds(100.0);
/// assert!((lo - 85.0).abs() < 1e-9 && (hi - 115.0).abs() < 1e-9);
/// assert!(t.contains(100.0, 110.0));
/// assert!(!t.contains(100.0, 120.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Tolerance(f64);

impl Tolerance {
    /// Create from a percentage (`15.0` → ±15 %).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite percentages.
    pub fn percent(percent: f64) -> Tolerance {
        assert!(
            percent.is_finite() && percent >= 0.0,
            "tolerance must be a non-negative percentage, got {percent}"
        );
        Tolerance(percent / 100.0)
    }

    /// The tolerance as a fraction (±0.15 for ±15 %).
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The tolerance as a percentage.
    pub fn percent_value(self) -> f64 {
        self.0 * 100.0
    }

    /// The `(low, high)` bounds around a nominal value.
    pub fn bounds(self, nominal: f64) -> (f64, f64) {
        (nominal * (1.0 - self.0), nominal * (1.0 + self.0))
    }

    /// Whether `actual` lies within the tolerance band around `nominal`.
    pub fn contains(self, nominal: f64, actual: f64) -> bool {
        let (lo, hi) = self.bounds(nominal);
        (lo..=hi).contains(&actual)
    }

    /// Sample a value from a truncated normal distribution whose ±3σ
    /// points sit at the tolerance bounds (the usual manufacturing
    /// assumption).
    pub fn sample_normal(self, nominal: f64, rng: &mut SimRng) -> f64 {
        if self.0 == 0.0 {
            return nominal;
        }
        let sigma = nominal.abs() * self.0 / 3.0;
        loop {
            // Rejection keeps us inside the band (±3σ, so rejections are
            // rare).
            let v = rng.normal(nominal, sigma);
            if self.contains(nominal, v) {
                return v;
            }
        }
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = self.percent_value();
        if (pct - pct.round()).abs() < 1e-9 {
            write!(f, "±{}%", pct.round())
        } else {
            write!(f, "±{pct:.2}%")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tolerance::percent(1.0);
        assert!((t.fraction() - 0.01).abs() < 1e-15);
        assert!((t.percent_value() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tolerance_rejected() {
        let _ = Tolerance::percent(-5.0);
    }

    #[test]
    fn display_rounds_nicely() {
        assert_eq!(Tolerance::percent(15.0).to_string(), "±15%");
        assert_eq!(Tolerance::percent(0.25).to_string(), "±0.25%");
    }

    #[test]
    fn exact_sampling_is_identity() {
        let mut rng = SimRng::from_seed(1);
        assert_eq!(Tolerance::percent(0.0).sample_normal(42.0, &mut rng), 42.0);
    }

    #[test]
    fn normal_samples_cluster_near_nominal() {
        let mut rng = SimRng::from_seed(7);
        let t = Tolerance::percent(15.0);
        let n = 4000;
        let mut mean = 0.0;
        let mut inside_one_sigma = 0;
        for _ in 0..n {
            let v = t.sample_normal(100.0, &mut rng);
            assert!(t.contains(100.0, v));
            mean += v;
            if (v - 100.0).abs() < 5.0 {
                inside_one_sigma += 1;
            }
        }
        mean /= n as f64;
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        // ±1σ should hold ≈ 68 % of samples.
        let frac = inside_one_sigma as f64 / n as f64;
        assert!((0.6..0.76).contains(&frac), "one-sigma fraction {frac}");
    }

    proptest! {
        #[test]
        fn bounds_are_symmetric(pct in 0.0f64..100.0, nominal in 0.001f64..1e6) {
            let t = Tolerance::percent(pct);
            let (lo, hi) = t.bounds(nominal);
            prop_assert!(((nominal - lo) - (hi - nominal)).abs() < 1e-6 * nominal);
        }
    }
}
