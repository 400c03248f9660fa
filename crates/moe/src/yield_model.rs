//! Yield models: how likely a part or stage is to leave the unit
//! defect-free.

use ipass_units::Probability;
use std::fmt;

/// Classic wafer/substrate defect-density yield models.
///
/// All take the product `λ = A·D₀` of area (cm²) and defect density
/// (defects/cm²) and return the probability that a substrate carries no
/// killer defect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefectModel {
    /// `Y = e^{-λ}` — random, uncorrelated defects.
    Poisson,
    /// `Y = ((1 − e^{-λ})/λ)²` — Murphy's bell-shaped compromise.
    Murphy,
    /// `Y = 1/(1 + λ)` — Seeds' model for strongly clustered defects.
    Seeds,
    /// `Y = (1 + λ/α)^{-α}` — negative binomial with cluster factor `α`.
    NegativeBinomial {
        /// Cluster factor; `α → ∞` recovers Poisson, `α = 1` recovers
        /// Seeds.
        alpha: f64,
    },
}

impl DefectModel {
    /// Evaluate the model at `lambda = area · defect_density`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or NaN.
    pub fn yield_at(self, lambda: f64) -> Probability {
        assert!(
            lambda >= 0.0 && !lambda.is_nan(),
            "lambda must be non-negative, got {lambda}"
        );
        let y = match self {
            DefectModel::Poisson => (-lambda).exp(),
            DefectModel::Murphy => {
                if lambda == 0.0 {
                    1.0
                } else {
                    let t = (1.0 - (-lambda).exp()) / lambda;
                    t * t
                }
            }
            DefectModel::Seeds => 1.0 / (1.0 + lambda),
            DefectModel::NegativeBinomial { alpha } => {
                assert!(alpha > 0.0, "cluster factor must be positive, got {alpha}");
                (1.0 + lambda / alpha).powf(-alpha)
            }
        };
        Probability::clamped(y)
    }
}

/// How a part or stage affects the defect state of the unit.
///
/// # Examples
///
/// ```
/// use ipass_moe::YieldModel;
/// use ipass_units::Probability;
///
/// // 212 wire bonds, each 99.99 % reliable:
/// let wb = YieldModel::per_item(Probability::new(0.9999)?, 212);
/// assert!((wb.value().value() - 0.9999f64.powi(212)).abs() < 1e-12);
/// # Ok::<(), ipass_units::ProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum YieldModel {
    /// Never introduces a defect.
    #[default]
    Certain,
    /// A flat per-step (or per-part) probability of staying good.
    Flat(Probability),
    /// `each^items`: independent per-item yield (bonds, placements).
    PerItem {
        /// Yield of one item.
        each: Probability,
        /// Number of items.
        items: u32,
    },
}

impl YieldModel {
    /// A flat yield.
    pub fn flat(p: Probability) -> YieldModel {
        YieldModel::Flat(p)
    }

    /// A flat yield given as a percentage (e.g. `99.9`).
    ///
    /// # Panics
    ///
    /// Panics when the percentage is outside `[0, 100]`; yield tables are
    /// static data, so a bad entry is a programming error.
    pub fn percent(percent: f64) -> YieldModel {
        YieldModel::Flat(
            Probability::from_percent(percent)
                .unwrap_or_else(|e| panic!("invalid yield percentage: {e}")),
        )
    }

    /// Independent per-item yield.
    pub fn per_item(each: Probability, items: u32) -> YieldModel {
        YieldModel::PerItem { each, items }
    }

    /// The resulting probability that no defect is introduced.
    pub fn value(&self) -> Probability {
        match *self {
            YieldModel::Certain => Probability::ONE,
            YieldModel::Flat(p) => p,
            YieldModel::PerItem { each, items } => each.powi(items),
        }
    }
}

impl fmt::Display for YieldModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn certain_and_flat() {
        assert!(YieldModel::Certain.value().is_certain());
        assert_eq!(YieldModel::flat(p(0.9)).value().value(), 0.9);
        assert!((YieldModel::percent(99.9).value().value() - 0.999).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid yield percentage")]
    fn percent_rejects_out_of_range() {
        let _ = YieldModel::percent(120.0);
    }

    #[test]
    fn per_item_compounds() {
        let y = YieldModel::per_item(p(0.9999), 112).value();
        assert!((y.value() - 0.9999f64.powi(112)).abs() < 1e-12);
        assert!(YieldModel::per_item(p(0.5), 0).value().is_certain());
    }

    #[test]
    fn defect_models_at_zero_lambda_are_unity() {
        for m in [
            DefectModel::Poisson,
            DefectModel::Murphy,
            DefectModel::Seeds,
            DefectModel::NegativeBinomial { alpha: 2.0 },
        ] {
            assert!(m.yield_at(0.0).is_certain(), "{m:?}");
        }
    }

    #[test]
    fn defect_model_ordering_at_moderate_lambda() {
        // For the same λ the models are ordered: Poisson is the most
        // pessimistic, Seeds the most optimistic, Murphy in between.
        let l = 1.0;
        let poisson = DefectModel::Poisson.yield_at(l).value();
        let murphy = DefectModel::Murphy.yield_at(l).value();
        let seeds = DefectModel::Seeds.yield_at(l).value();
        assert!(poisson < murphy && murphy < seeds);
    }

    #[test]
    fn negative_binomial_limits() {
        let l = 0.8;
        let nb_large = DefectModel::NegativeBinomial { alpha: 1e9 }
            .yield_at(l)
            .value();
        let poisson = DefectModel::Poisson.yield_at(l).value();
        assert!((nb_large - poisson).abs() < 1e-6);
        let nb_one = DefectModel::NegativeBinomial { alpha: 1.0 }
            .yield_at(l)
            .value();
        let seeds = DefectModel::Seeds.yield_at(l).value();
        assert!((nb_one - seeds).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_rejected() {
        let _ = DefectModel::Poisson.yield_at(-0.1);
    }

    #[test]
    fn display_shows_percent() {
        assert_eq!(YieldModel::percent(93.3).to_string(), "93.30%");
    }

    proptest! {
        #[test]
        fn all_models_stay_in_range(lambda in 0.0f64..50.0, alpha in 0.1f64..10.0) {
            for m in [
                DefectModel::Poisson,
                DefectModel::Murphy,
                DefectModel::Seeds,
                DefectModel::NegativeBinomial { alpha },
            ] {
                let y = m.yield_at(lambda).value();
                prop_assert!((0.0..=1.0).contains(&y), "{:?} at {} gave {}", m, lambda, y);
            }
        }
    }
}
