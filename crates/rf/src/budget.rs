//! Cascade (chain) budget analysis: gain and noise figure through a
//! receiver lineup, Friis' formula.
//!
//! The paper's Fig. 2 sketches the GPS chain (LNA → image filter → mixer
//! → IF filter → …). Filter insertion loss is not free: a lossy passive
//! stage has a noise figure equal to its loss, attenuated in impact by
//! the gain in front of it. This module quantifies what the §4.1 filter
//! losses do to the receiver.

use std::fmt;

/// One stage of a receiver chain.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeStage {
    name: String,
    gain_db: f64,
    nf_db: f64,
}

impl CascadeStage {
    /// An active stage with explicit gain and noise figure.
    ///
    /// # Panics
    ///
    /// Panics on non-finite inputs or a noise figure below 0 dB.
    pub fn new(name: impl Into<String>, gain_db: f64, nf_db: f64) -> CascadeStage {
        assert!(gain_db.is_finite(), "gain must be finite");
        assert!(
            nf_db.is_finite() && nf_db >= 0.0,
            "noise figure must be ≥ 0 dB, got {nf_db}"
        );
        CascadeStage {
            name: name.into(),
            gain_db,
            nf_db,
        }
    }

    /// A passive lossy stage (filter, matching network): its noise
    /// figure equals its insertion loss.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite loss.
    pub fn passive(name: impl Into<String>, loss_db: f64) -> CascadeStage {
        assert!(
            loss_db.is_finite() && loss_db >= 0.0,
            "passive loss must be ≥ 0 dB, got {loss_db}"
        );
        CascadeStage {
            name: name.into(),
            gain_db: -loss_db,
            nf_db: loss_db,
        }
    }

    /// Stage gain in dB (negative for passive losses).
    pub fn gain_db(&self) -> f64 {
        self.gain_db
    }

    /// Stage noise figure in dB.
    pub fn nf_db(&self) -> f64 {
        self.nf_db
    }
}

/// A cumulative point of the budget after each stage.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPoint {
    /// Stage name.
    pub name: String,
    /// Cumulative gain up to and including this stage (dB).
    pub cumulative_gain_db: f64,
    /// Cumulative noise figure up to and including this stage (dB).
    pub cumulative_nf_db: f64,
}

/// A receiver chain budget.
///
/// # Examples
///
/// ```
/// use ipass_rf::{CascadeStage, ChainBudget};
///
/// let chain = ChainBudget::new(vec![
///     CascadeStage::new("LNA", 15.0, 1.5),
///     CascadeStage::passive("image filter", 3.0),
///     CascadeStage::new("mixer", 8.0, 9.0),
/// ]);
/// // Friis: the 9 dB mixer dominates; the filter behind 15 dB of
/// // LNA gain costs almost nothing.
/// assert!((chain.noise_figure_db() - 2.75).abs() < 0.05);
/// assert!((chain.total_gain_db() - 20.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChainBudget {
    stages: Vec<CascadeStage>,
}

impl ChainBudget {
    /// Create a budget from stages in signal order.
    ///
    /// # Panics
    ///
    /// Panics on an empty chain.
    pub fn new(stages: Vec<CascadeStage>) -> ChainBudget {
        assert!(!stages.is_empty(), "a chain needs at least one stage");
        ChainBudget { stages }
    }

    /// Total chain gain in dB.
    pub fn total_gain_db(&self) -> f64 {
        self.stages.iter().map(CascadeStage::gain_db).sum()
    }

    /// Chain noise figure in dB (Friis' formula).
    pub fn noise_figure_db(&self) -> f64 {
        self.cumulative()
            .last()
            .map(|p| p.cumulative_nf_db)
            .unwrap_or(0.0)
    }

    /// The cumulative gain/NF after every stage.
    pub fn cumulative(&self) -> Vec<BudgetPoint> {
        let mut points = Vec::with_capacity(self.stages.len());
        let mut gain_linear = 1.0f64;
        let mut noise_factor = 1.0f64;
        for stage in &self.stages {
            let f = 10f64.powf(stage.nf_db / 10.0);
            noise_factor += (f - 1.0) / gain_linear;
            gain_linear *= 10f64.powf(stage.gain_db / 10.0);
            points.push(BudgetPoint {
                name: stage.name.clone(),
                cumulative_gain_db: 10.0 * gain_linear.log10(),
                cumulative_nf_db: 10.0 * noise_factor.log10(),
            });
        }
        points
    }

    /// Render the budget table.
    pub fn render(&self) -> String {
        let mut out = String::from("stage                         gain     NF   Σgain    ΣNF\n");
        for (stage, point) in self.stages.iter().zip(self.cumulative()) {
            out.push_str(&format!(
                "{:<28} {:>6.1} {:>6.2} {:>7.1} {:>6.2}\n",
                stage.name,
                stage.gain_db,
                stage.nf_db,
                point.cumulative_gain_db,
                point.cumulative_nf_db
            ));
        }
        out
    }
}

impl fmt::Display for ChainBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_stage_is_its_own_budget() {
        let chain = ChainBudget::new(vec![CascadeStage::new("LNA", 15.0, 1.5)]);
        assert!((chain.total_gain_db() - 15.0).abs() < 1e-12);
        assert!((chain.noise_figure_db() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn passive_stage_nf_equals_loss() {
        let s = CascadeStage::passive("filter", 3.77);
        assert_eq!(s.gain_db(), -3.77);
        assert_eq!(s.nf_db(), 3.77);
    }

    #[test]
    fn friis_textbook_example() {
        // Classic: LNA G=10 dB NF=2 dB, then a noisy stage NF=10 dB.
        // F = 1.585 + (10−1)/10 = 2.485 → 3.95 dB.
        let chain = ChainBudget::new(vec![
            CascadeStage::new("lna", 10.0, 2.0),
            CascadeStage::new("mixer", 0.0, 10.0),
        ]);
        assert!((chain.noise_figure_db() - 3.955).abs() < 0.01);
    }

    #[test]
    fn loss_before_gain_hurts_most() {
        let filter_first = ChainBudget::new(vec![
            CascadeStage::passive("filter", 3.0),
            CascadeStage::new("LNA", 15.0, 1.5),
        ]);
        let lna_first = ChainBudget::new(vec![
            CascadeStage::new("LNA", 15.0, 1.5),
            CascadeStage::passive("filter", 3.0),
        ]);
        // Pre-LNA loss adds dB-for-dB; post-LNA it is divided by gain.
        assert!((filter_first.noise_figure_db() - 4.5).abs() < 0.01);
        assert!(lna_first.noise_figure_db() < 1.8);
    }

    #[test]
    fn cumulative_is_monotone_in_nf() {
        let chain = ChainBudget::new(vec![
            CascadeStage::new("LNA", 15.0, 1.5),
            CascadeStage::passive("filter", 3.8),
            CascadeStage::new("mixer", 8.0, 9.0),
            CascadeStage::passive("IF filter", 6.6),
            CascadeStage::new("IF amp", 30.0, 4.0),
        ]);
        let points = chain.cumulative();
        for w in points.windows(2) {
            assert!(w[1].cumulative_nf_db >= w[0].cumulative_nf_db - 1e-12);
        }
        assert!(chain.render().contains("ΣNF"));
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_chain_rejected() {
        let _ = ChainBudget::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "≥ 0 dB")]
    fn negative_nf_rejected() {
        let _ = CascadeStage::new("x", 10.0, -1.0);
    }

    proptest! {
        #[test]
        fn chain_nf_at_least_first_stage_nf(
            g1 in 0.0f64..30.0, nf1 in 0.0f64..10.0,
            g2 in -10.0f64..30.0, nf2 in 0.0f64..10.0,
        ) {
            let chain = ChainBudget::new(vec![
                CascadeStage::new("a", g1, nf1),
                CascadeStage::new("b", g2, nf2),
            ]);
            prop_assert!(chain.noise_figure_db() >= nf1 - 1e-9);
        }

        #[test]
        fn total_gain_is_sum(gains in proptest::collection::vec(-20.0f64..30.0, 1..6)) {
            let stages: Vec<CascadeStage> = gains
                .iter()
                .enumerate()
                .map(|(i, &g)| CascadeStage::new(format!("s{i}"), g, 1.0))
                .collect();
            let chain = ChainBudget::new(stages);
            let expect: f64 = gains.iter().sum();
            prop_assert!((chain.total_gain_db() - expect).abs() < 1e-9);
        }
    }
}
