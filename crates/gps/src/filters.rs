//! The GPS analog chain's filters and the §4.1 performance assessment.
//!
//! Fig. 2 has three filter functions: the LNA output band-pass at
//! 1.575 GHz (Cauer type, must reject the 1.225 GHz image), the two IF
//! band-passes at 175 MHz (2-pole Tchebyscheff) and the 50 Ω matching
//! networks. [`assess_performance`] scores the first two, as §4.1 does:
//! per build-up, the LNA and IF filters are realized with the element
//! quality the chosen technology offers, analyzed, and scored against
//! their specs; the solution's performance figure is the worse score
//! (the weakest link gates the receiver). The matching networks are
//! counted in the BOM (`bom`), not scored.

use ipass_core::{BuildUp, PassivePolicy};
use ipass_rf::{
    bandpass, image_reject_bandpass, Approximation, BandpassDesign, ElementLosses, FilterSpec,
    StopbandPoint,
};
use ipass_units::Frequency;
use std::fmt;

/// Element quality (unloaded Q) by technology and band.
///
/// * SMD filter modules: dedicated high-Q parts (wire-wound L).
/// * Integrated spirals: Q ≈ 17 at 1.575 GHz but ≈ 13.8 at 175 MHz even
///   with widened lines (`ipass-passives` derives these from conductor
///   loss; see `SpiralInductor`).
/// * Solution 4's hybrid IF filter: SMD multilayer chip inductors
///   (Q ≈ 25 at VHF) with integrated capacitors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyQ {
    /// Inductor unloaded Q at the RF band (1.575 GHz).
    pub l_q_rf: f64,
    /// Inductor unloaded Q at the IF band (175 MHz).
    pub l_q_if: f64,
    /// Capacitor unloaded Q (both bands).
    pub c_q: f64,
}

impl TechnologyQ {
    /// SMD filter modules / discrete high-Q parts.
    pub fn smd_modules() -> TechnologyQ {
        TechnologyQ {
            l_q_rf: 40.0,
            l_q_if: 45.0,
            c_q: 200.0,
        }
    }

    /// Fully integrated thin-film passives.
    pub fn integrated() -> TechnologyQ {
        TechnologyQ {
            l_q_rf: 25.0,
            l_q_if: 13.8,
            c_q: 95.0,
        }
    }

    /// The hybrid of solution 4: SMD multilayer inductors, integrated
    /// capacitors and resistors.
    pub fn hybrid() -> TechnologyQ {
        TechnologyQ {
            l_q_rf: 25.0, // LNA filter stays integrated in solution 4
            l_q_if: 25.0, // SMD multilayer chip inductor at 175 MHz
            c_q: 95.0,
        }
    }

    /// The Q card a build-up's filters see.
    pub fn for_buildup(buildup: &BuildUp) -> TechnologyQ {
        if !buildup.substrate().supports_integrated_passives() {
            return TechnologyQ::smd_modules();
        }
        match buildup.passives() {
            PassivePolicy::AllSmd => TechnologyQ::smd_modules(),
            PassivePolicy::AllIntegrated => TechnologyQ::integrated(),
            PassivePolicy::Optimized => TechnologyQ::hybrid(),
        }
    }
}

/// The GPS signal frequency.
pub fn gps_l1() -> Frequency {
    Frequency::from_giga(1.575)
}

/// The image frequency rejected by the LNA output filter.
pub fn image_frequency() -> Frequency {
    Frequency::from_giga(1.225)
}

/// The intermediate frequency.
pub fn intermediate_frequency() -> Frequency {
    Frequency::from_mega(175.0)
}

/// The LNA output filter spec: ≤4 dB at 1.575 GHz ("losses of 3 dB …
/// meeting the performance specifications"), ≥20 dB at the image.
pub fn lna_filter_spec() -> FilterSpec {
    FilterSpec::new("LNA output BP 1.575 GHz", gps_l1(), 4.0).with_stopband(StopbandPoint {
        frequency: image_frequency(),
        min_attenuation_db: 20.0,
    })
}

/// The IF filter spec: ≤3 dB at 175 MHz.
pub fn if_filter_spec() -> FilterSpec {
    FilterSpec::new("IF BP 175 MHz", intermediate_frequency(), 3.0)
}

/// Design the LNA output image-reject ("Cauer type") filter with the
/// given element quality.
pub fn lna_filter(q: &TechnologyQ) -> BandpassDesign {
    image_reject_bandpass(
        3,
        0.2,
        gps_l1(),
        image_frequency(),
        Frequency::from_mega(470.0),
        50.0,
        ElementLosses::q(q.l_q_rf, q.c_q),
    )
}

/// Design the 2-pole Tchebyscheff IF filter with the given element
/// quality.
pub fn if_filter(q: &TechnologyQ) -> BandpassDesign {
    bandpass(
        2,
        Approximation::Chebyshev { ripple_db: 0.5 },
        intermediate_frequency(),
        Frequency::from_mega(20.0),
        50.0,
        ElementLosses::q(q.l_q_if, q.c_q),
    )
}

/// The per-filter scores and the overall performance of a build-up.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceAssessment {
    /// Build-up name.
    pub buildup: String,
    /// LNA output filter score.
    pub lna_score: f64,
    /// LNA passband insertion loss (dB).
    pub lna_loss_db: f64,
    /// Image rejection achieved (dB).
    pub image_rejection_db: f64,
    /// IF filter score.
    pub if_score: f64,
    /// IF midband insertion loss (dB).
    pub if_loss_db: f64,
    /// Overall performance: the worst filter gates the receiver.
    pub overall: f64,
}

impl fmt::Display for PerformanceAssessment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: LNA {:.2} dB (score {:.2}, image −{:.1} dB), IF {:.2} dB (score {:.2}) → {:.2}",
            self.buildup,
            self.lna_loss_db,
            self.lna_score,
            self.image_rejection_db,
            self.if_loss_db,
            self.if_score,
            self.overall
        )
    }
}

/// Assess a build-up's analog chain (methodology step 2).
///
/// # Examples
///
/// ```
/// use ipass_core::{BuildUp, PassivePolicy};
/// use ipass_gps::filters::assess_performance;
///
/// // The full-IP solution misses the IF loss budget — the paper's 0.45.
/// let sol3 = assess_performance(&BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated));
/// assert!(sol3.overall < 0.55 && sol3.overall > 0.35);
///
/// // The SMD reference meets everything.
/// let sol1 = assess_performance(&BuildUp::pcb_reference());
/// assert_eq!(sol1.overall, 1.0);
/// ```
pub fn assess_performance(buildup: &BuildUp) -> PerformanceAssessment {
    let q = TechnologyQ::for_buildup(buildup);
    let lna = lna_filter(&q);
    let lna_report = lna_filter_spec().evaluate(lna.ladder());
    let iff = if_filter(&q);
    let if_report = if_filter_spec().evaluate(iff.ladder());
    let lna_score = lna_report.performance_score();
    let if_score = if_report.performance_score();
    PerformanceAssessment {
        buildup: buildup.to_string(),
        lna_score,
        lna_loss_db: lna_report.passband_loss_db(),
        image_rejection_db: lna.ladder().insertion_loss_db(image_frequency()),
        if_score,
        if_loss_db: if_report.passband_loss_db(),
        overall: lna_score.min(if_score),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn scores_reproduce_section_4_1() {
        let solutions = BuildUp::paper_solutions();
        let scores: Vec<f64> = solutions
            .iter()
            .map(|b| assess_performance(b).overall)
            .collect();
        assert_eq!(scores[0], 1.0);
        assert_eq!(scores[1], 1.0);
        assert!(
            (scores[2] - paper::PERFORMANCE_SCORES[2]).abs() < 0.08,
            "solution 3 score {} vs paper 0.45",
            scores[2]
        );
        assert!(
            (scores[3] - paper::PERFORMANCE_SCORES[3]).abs() < 0.08,
            "solution 4 score {} vs paper 0.70",
            scores[3]
        );
    }

    #[test]
    fn lna_filter_meets_spec_in_every_technology() {
        // §4.1: "The LNA output filter can use integrated passives only …
        // meeting the performance specifications."
        for b in BuildUp::paper_solutions() {
            let a = assess_performance(&b);
            assert_eq!(a.lna_score, 1.0, "{b}: LNA loss {} dB", a.lna_loss_db);
            assert!(
                a.image_rejection_db > 20.0,
                "{b}: rejection {}",
                a.image_rejection_db
            );
        }
    }

    #[test]
    fn integrated_lna_loss_is_about_3db() {
        let a = assess_performance(&BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated));
        assert!(
            (2.0..4.0).contains(&a.lna_loss_db),
            "LNA loss {} dB should be ≈3 dB",
            a.lna_loss_db
        );
    }

    #[test]
    fn if_filter_is_the_weak_link() {
        let a = assess_performance(&BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated));
        assert!(a.if_score < a.lna_score);
        assert_eq!(a.overall, a.if_score);
        // "Such a filter would have had higher losses than were allowed."
        assert!(a.if_loss_db > if_filter_spec().max_passband_loss_db());
    }

    #[test]
    fn hybrid_is_borderline_but_better() {
        let sol3 = assess_performance(&BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated));
        let sol4 = assess_performance(&BuildUp::mcm_flip_chip(PassivePolicy::Optimized));
        assert!(sol4.overall > sol3.overall);
        assert!(sol4.overall < 1.0, "solution 4 keeps a reduced margin");
    }

    #[test]
    fn display_reports_both_filters() {
        let a = assess_performance(&BuildUp::pcb_reference());
        let s = a.to_string();
        assert!(s.contains("LNA") && s.contains("IF"));
    }
}
