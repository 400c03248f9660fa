//! Filter specifications and the paper's performance scoring.
//!
//! §4.1 of the paper ranks implementations by "the relation of specified
//! losses to calculated losses": a filter whose computed insertion loss
//! is within spec scores 1.0; one that misses scores proportionally
//! below 1.

use crate::twoport::Ladder;
use ipass_units::Frequency;
use std::fmt;

/// A point requirement: at least `min_attenuation_db` at `frequency`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopbandPoint {
    /// Where the rejection is required.
    pub frequency: Frequency,
    /// Required attenuation in dB.
    pub min_attenuation_db: f64,
}

/// The specification a filter implementation is scored against.
///
/// # Examples
///
/// ```
/// use ipass_rf::{FilterSpec, StopbandPoint};
/// use ipass_units::Frequency;
///
/// // The GPS LNA output filter: ≤4 dB at 1.575 GHz, ≥20 dB at the
/// // 1.225 GHz image.
/// let spec = FilterSpec::new("LNA output", Frequency::from_giga(1.575), 4.0)
///     .with_stopband(StopbandPoint {
///         frequency: Frequency::from_giga(1.225),
///         min_attenuation_db: 20.0,
///     });
/// assert_eq!(spec.max_passband_loss_db(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    name: String,
    passband_center: Frequency,
    max_passband_loss_db: f64,
    stopband: Vec<StopbandPoint>,
}

impl FilterSpec {
    /// Create a spec with a passband loss budget at the center frequency.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive loss budget.
    pub fn new(
        name: impl Into<String>,
        passband_center: Frequency,
        max_passband_loss_db: f64,
    ) -> FilterSpec {
        assert!(
            max_passband_loss_db > 0.0 && max_passband_loss_db.is_finite(),
            "loss budget must be positive dB, got {max_passband_loss_db}"
        );
        FilterSpec {
            name: name.into(),
            passband_center,
            max_passband_loss_db,
            stopband: Vec::new(),
        }
    }

    /// Add a stopband requirement.
    pub fn with_stopband(mut self, point: StopbandPoint) -> FilterSpec {
        self.stopband.push(point);
        self
    }

    /// Spec name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The passband loss budget in dB.
    pub fn max_passband_loss_db(&self) -> f64 {
        self.max_passband_loss_db
    }

    /// The stopband requirements.
    pub fn stopband(&self) -> &[StopbandPoint] {
        &self.stopband
    }

    /// Evaluate a realized filter against this spec.
    pub fn evaluate(&self, ladder: &Ladder) -> SpecReport {
        let passband_loss_db = ladder.insertion_loss_db(self.passband_center);
        let stopband: Vec<(StopbandPoint, f64)> = self
            .stopband
            .iter()
            .map(|&p| (p, ladder.insertion_loss_db(p.frequency)))
            .collect();
        SpecReport {
            spec_name: self.name.clone(),
            passband_loss_db,
            loss_budget_db: self.max_passband_loss_db,
            stopband,
        }
    }
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: ≤{} dB at {}",
            self.name, self.max_passband_loss_db, self.passband_center
        )?;
        for p in &self.stopband {
            write!(f, ", ≥{} dB at {}", p.min_attenuation_db, p.frequency)?;
        }
        Ok(())
    }
}

/// The result of scoring a filter against its [`FilterSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReport {
    spec_name: String,
    passband_loss_db: f64,
    loss_budget_db: f64,
    stopband: Vec<(StopbandPoint, f64)>,
}

impl SpecReport {
    /// The computed passband insertion loss in dB.
    pub fn passband_loss_db(&self) -> f64 {
        self.passband_loss_db
    }

    /// The spec's loss budget in dB.
    pub fn loss_budget_db(&self) -> f64 {
        self.loss_budget_db
    }

    /// The computed attenuation at each stopband point.
    pub fn stopband(&self) -> &[(StopbandPoint, f64)] {
        &self.stopband
    }

    /// Whether every requirement is met.
    pub fn meets_spec(&self) -> bool {
        self.passband_loss_db <= self.loss_budget_db
            && self
                .stopband
                .iter()
                .all(|(p, att)| *att >= p.min_attenuation_db)
    }

    /// The paper's §4.1 score: `min(1, specified loss / calculated loss)`,
    /// further derated by any missed stopband requirement.
    pub fn performance_score(&self) -> f64 {
        let mut score: f64 = if self.passband_loss_db <= 0.0 {
            1.0
        } else {
            (self.loss_budget_db / self.passband_loss_db).min(1.0)
        };
        for (p, att) in &self.stopband {
            if *att < p.min_attenuation_db && p.min_attenuation_db > 0.0 {
                score = score.min((att / p.min_attenuation_db).max(0.0));
            }
        }
        score
    }
}

impl fmt::Display for SpecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2} dB vs budget {:.2} dB (score {:.2})",
            self.spec_name,
            self.passband_loss_db,
            self.loss_budget_db,
            self.performance_score()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{bandpass, Approximation, ElementLosses};
    use ipass_units::Frequency;

    fn mhz(v: f64) -> Frequency {
        Frequency::from_mega(v)
    }

    fn if_filter(q_l: f64, q_c: f64) -> Ladder {
        bandpass(
            2,
            Approximation::Chebyshev { ripple_db: 0.5 },
            mhz(175.0),
            mhz(20.0),
            50.0,
            ElementLosses::q(q_l, q_c),
        )
        .ladder()
        .clone()
    }

    fn if_spec() -> FilterSpec {
        FilterSpec::new("IF filter", mhz(175.0), 3.0)
    }

    #[test]
    fn good_filter_scores_one() {
        // SMD-quality elements: well within the 3 dB budget.
        let report = if_spec().evaluate(&if_filter(45.0, 200.0));
        assert!(report.meets_spec());
        assert_eq!(report.performance_score(), 1.0);
    }

    #[test]
    fn integrated_filter_scores_like_paper_sol3() {
        // Full-IP IF filter: spiral Q ≈ 13.8, IP-C Q ≈ 95 at 175 MHz →
        // the paper's 0.45 performance figure.
        let report = if_spec().evaluate(&if_filter(13.8, 95.0));
        assert!(!report.meets_spec());
        let score = report.performance_score();
        assert!(
            (0.38..0.52).contains(&score),
            "sol-3 style score {score} should be ≈0.45"
        );
    }

    #[test]
    fn hybrid_filter_scores_like_paper_sol4() {
        // SMD multilayer inductors (Q ≈ 25) with IP capacitors: the
        // paper's 0.7 "borderline" case.
        let report = if_spec().evaluate(&if_filter(25.0, 95.0));
        let score = report.performance_score();
        assert!(
            (0.6..0.85).contains(&score),
            "sol-4 style score {score} should be ≈0.7"
        );
    }

    #[test]
    fn stopband_violation_derates() {
        let spec = FilterSpec::new("x", mhz(175.0), 10.0).with_stopband(StopbandPoint {
            frequency: mhz(200.0),
            min_attenuation_db: 60.0,
        });
        let report = spec.evaluate(&if_filter(45.0, 200.0));
        assert!(!report.meets_spec());
        assert!(report.performance_score() < 1.0);
        assert_eq!(report.stopband().len(), 1);
    }

    #[test]
    fn spec_display_and_accessors() {
        let spec = if_spec().with_stopband(StopbandPoint {
            frequency: mhz(400.0),
            min_attenuation_db: 30.0,
        });
        assert!(spec.to_string().contains("175 MHz"));
        assert_eq!(spec.name(), "IF filter");
        assert_eq!(spec.max_passband_loss_db(), 3.0);
        assert_eq!(spec.stopband().len(), 1);
        let report = spec.evaluate(&if_filter(45.0, 200.0));
        assert!(report.to_string().contains("score"));
    }

    #[test]
    #[should_panic(expected = "loss budget")]
    fn non_positive_budget_rejected() {
        let _ = FilterSpec::new("bad", mhz(1.0), 0.0);
    }
}
