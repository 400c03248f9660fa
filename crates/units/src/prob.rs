//! A validated probability type with the yield algebra used throughout the
//! cost model.

use crate::error::ProbabilityError;
use std::fmt;
use std::iter::Product;
use std::ops::Mul;

/// A probability (or manufacturing yield) guaranteed to lie in `[0, 1]`.
///
/// Yields compose multiplicatively: a module survives a process chain when
/// every step succeeds, so the chain yield is the product of the step
/// yields. `Probability` implements [`Mul`] and [`Product`] for exactly
/// this composition, plus a helper for per-item repetition ([`powi`]).
///
/// [`powi`]: Probability::powi
///
/// # Examples
///
/// ```
/// use ipass_units::Probability;
///
/// let die = Probability::new(0.95)?;
/// let attach = Probability::new(0.99)?;
/// let chain = die * attach;
/// assert!((chain.value() - 0.9405).abs() < 1e-12);
///
/// // 212 wire bonds at 99.99 % each:
/// let bonds = Probability::new(0.9999)?.powi(212);
/// assert!((bonds.value() - 0.9999f64.powi(212)).abs() < 1e-12);
/// # Ok::<(), ipass_units::ProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Probability(f64);

impl Probability {
    /// Certain success (yield 1).
    pub const ONE: Probability = Probability(1.0);
    /// Certain failure (yield 0).
    pub const ZERO: Probability = Probability(0.0);

    /// Create a probability.
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] when `value` is not finite or lies
    /// outside `[0, 1]`.
    pub fn new(value: f64) -> Result<Probability, ProbabilityError> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Ok(Probability(value))
        } else {
            Err(ProbabilityError::new(value))
        }
    }

    /// Create a probability from a percentage (e.g. `99.9` → `0.999`).
    ///
    /// # Errors
    ///
    /// Returns [`ProbabilityError`] when the percentage is not finite or
    /// lies outside `[0, 100]`.
    pub fn from_percent(percent: f64) -> Result<Probability, ProbabilityError> {
        Probability::new(percent / 100.0)
    }

    /// Create a probability, clamping out-of-range finite values into
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN probability is always a logic
    /// error, not a rounding artifact.
    pub fn clamped(value: f64) -> Probability {
        assert!(!value.is_nan(), "probability must not be NaN");
        Probability(value.clamp(0.0, 1.0))
    }

    /// The underlying value in `[0, 1]`.
    pub fn value(self) -> f64 {
        self.0
    }

    /// The value expressed as a percentage in `[0, 100]`.
    pub fn percent(self) -> f64 {
        self.0 * 100.0
    }

    /// `pⁿ`: the yield of `n` independent repetitions (per-bond, per-SMD
    /// placements). `powi(0)` is [`Probability::ONE`].
    ///
    /// Exponents beyond `i32::MAX` (which `f64::powi` cannot represent)
    /// fall back to `powf` — without this, `n as i32` would wrap to a
    /// *negative* exponent and silently clamp `pⁿ` to 1 instead of
    /// letting it tend to 0.
    pub fn powi(self, n: u32) -> Probability {
        match i32::try_from(n) {
            Ok(n) => Probability::clamped(self.0.powi(n)),
            Err(_) => Probability::clamped(self.0.powf(f64::from(n))),
        }
    }

    /// `p^x` for a real exponent `x ≥ 0` — used by per-area yield models
    /// (`yield_per_cm² ^ area_cm²`).
    ///
    /// # Panics
    ///
    /// Panics if `exponent` is negative or NaN.
    pub fn powf(self, exponent: f64) -> Probability {
        assert!(
            exponent >= 0.0,
            "yield exponent must be non-negative, got {exponent}"
        );
        Probability::clamped(self.0.powf(exponent))
    }

    /// Whether this probability is exactly 1.
    pub fn is_certain(self) -> bool {
        self.0 == 1.0
    }
}

impl Mul for Probability {
    type Output = Probability;

    fn mul(self, rhs: Probability) -> Probability {
        Probability::clamped(self.0 * rhs.0)
    }
}

impl Product for Probability {
    fn product<I: Iterator<Item = Probability>>(iter: I) -> Probability {
        iter.fold(Probability::ONE, |acc, p| acc * p)
    }
}

impl fmt::Display for Probability {
    /// Displays as a percentage, matching how the paper quotes yields.
    ///
    /// ```
    /// use ipass_units::Probability;
    /// assert_eq!(Probability::new(0.933).unwrap().to_string(), "93.30%");
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}%", self.percent())
    }
}

impl From<Probability> for f64 {
    fn from(p: Probability) -> f64 {
        p.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates_range() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(-0.001).is_err());
        assert!(Probability::new(1.001).is_err());
        assert!(Probability::new(f64::NAN).is_err());
        assert!(Probability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn from_percent_matches_table_values() {
        let y = Probability::from_percent(99.99).unwrap();
        assert!((y.value() - 0.9999).abs() < 1e-12);
        assert!(Probability::from_percent(100.1).is_err());
    }

    #[test]
    fn clamped_saturates() {
        assert_eq!(Probability::clamped(1.5), Probability::ONE);
        assert_eq!(Probability::clamped(-0.5), Probability::ZERO);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn clamped_rejects_nan() {
        let _ = Probability::clamped(f64::NAN);
    }

    #[test]
    fn product_of_chain() {
        let chain: Probability = [0.95, 0.99, 0.968]
            .iter()
            .map(|&v| Probability::new(v).unwrap())
            .product();
        assert!((chain.value() - 0.95 * 0.99 * 0.968).abs() < 1e-12);
    }

    #[test]
    fn powi_zero_is_one() {
        assert!(Probability::new(0.5).unwrap().powi(0).is_certain());
    }

    #[test]
    fn powi_beyond_i32_max_tends_to_zero_not_one() {
        // Regression: `n as i32` used to wrap huge exponents negative,
        // so p^n clamped to 1.0 instead of underflowing toward 0.
        let p = Probability::new(0.5).unwrap();
        assert_eq!(p.powi(u32::MAX).value(), 0.0);
        assert_eq!(p.powi(i32::MAX as u32 + 1).value(), 0.0);
        // A certain yield stays certain for any repetition count.
        assert!(Probability::ONE.powi(u32::MAX).is_certain());
        // Just inside the i32 range still goes through exact powi.
        let tiny = Probability::new(0.999_999_999)
            .unwrap()
            .powi(i32::MAX as u32);
        assert!((0.0..1.0).contains(&tiny.value()));
    }

    #[test]
    fn powf_per_area_yield() {
        // 99 % per cm² over 8.1 cm².
        let y = Probability::new(0.99).unwrap().powf(8.1);
        assert!((y.value() - 0.99f64.powf(8.1)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn powf_rejects_negative_exponent() {
        let _ = Probability::new(0.99).unwrap().powf(-1.0);
    }

    #[test]
    fn display_is_percent() {
        assert_eq!(Probability::new(0.999).unwrap().to_string(), "99.90%");
    }

    proptest! {
        #[test]
        fn mul_stays_in_range(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let p = Probability::new(a).unwrap() * Probability::new(b).unwrap();
            prop_assert!((0.0..=1.0).contains(&p.value()));
        }

        #[test]
        fn mul_is_commutative(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
            let pa = Probability::new(a).unwrap();
            let pb = Probability::new(b).unwrap();
            prop_assert_eq!((pa * pb).value(), (pb * pa).value());
        }

        #[test]
        fn powi_matches_repeated_mul(a in 0.0f64..=1.0, n in 0u32..12) {
            let p = Probability::new(a).unwrap();
            let by_pow = p.powi(n);
            let by_mul: Probability = std::iter::repeat_n(p, n as usize).product();
            prop_assert!((by_pow.value() - by_mul.value()).abs() < 1e-12);
        }
    }
}
