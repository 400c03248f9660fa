//! Integrated MIM (metal-insulator-metal) capacitor synthesis.
//!
//! The paper: "Integrated capacitors are fabricated by depositing a
//! sandwich structure or interdigitated combs with a high-κ material in
//! the middle, e.g. Si₃N₄ or BaₓTiOᵧ. Thus, capacitors up to 100 pF/mm²
//! (10 nF/cm²) have been realized." The large area of integrated
//! decoupling capacitors is one of the paper's central trade-offs.

use crate::error::SynthesisError;
use crate::materials::{DielectricFilm, ThinFilmProcess};
use crate::tolerance::Tolerance;
use ipass_units::{Area, Capacitance};
use std::fmt;

/// Realizable capacitance range.
const MIN_FARADS: f64 = 0.1e-12;
const MAX_FARADS: f64 = 50e-9;

/// A synthesized parallel-plate thin-film capacitor.
///
/// # Examples
///
/// ```
/// use ipass_passives::{MimCapacitor, ThinFilmProcess};
/// use ipass_units::Capacitance;
///
/// let process = ThinFilmProcess::summit_mcm_d();
///
/// // Table 1: a 50 pF capacitor occupies ≈ 0.3 mm² (high-κ film).
/// let c = MimCapacitor::synthesize(Capacitance::from_pico(50.0), &process)?;
/// assert!((c.area().mm2() - 0.3).abs() < 0.05);
///
/// // A 3.3 nF decoupling capacitor on Si₃N₄ eats ≈ 33 mm² — the
/// // "large area consumed" problem the paper highlights.
/// let decap = MimCapacitor::synthesize_in_film(
///     Capacitance::from_nano(3.3),
///     &process,
///     process.decoupling_film().clone(),
/// )?;
/// assert!(decap.area().mm2() > 30.0);
/// # Ok::<(), ipass_passives::SynthesisError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MimCapacitor {
    target: Capacitance,
    film: DielectricFilm,
    area: Area,
}

impl MimCapacitor {
    /// Synthesize a small-signal RF capacitor in the process' high-κ
    /// film.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] for non-positive or out-of-range
    /// targets.
    pub fn synthesize(
        target: Capacitance,
        process: &ThinFilmProcess,
    ) -> Result<MimCapacitor, SynthesisError> {
        MimCapacitor::synthesize_in_film(target, process, process.capacitor_film().clone())
    }

    /// Synthesize in an explicit dielectric film.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] for non-positive or out-of-range
    /// targets.
    pub fn synthesize_in_film(
        target: Capacitance,
        process: &ThinFilmProcess,
        film: DielectricFilm,
    ) -> Result<MimCapacitor, SynthesisError> {
        let c = target.farads();
        if !(c.is_finite() && c > 0.0) {
            return Err(SynthesisError::NonPositiveValue {
                what: "capacitance",
                value: c,
            });
        }
        if !(MIN_FARADS..=MAX_FARADS).contains(&c) {
            return Err(SynthesisError::OutOfRange {
                what: "capacitance",
                value: c,
                min: MIN_FARADS,
                max: MAX_FARADS,
            });
        }
        let plate_mm2 = target.picofarads() / film.density_pf_mm2();
        let plate_side_mm = plate_mm2.sqrt();
        // The bottom plate extends half a spacing beyond the top plate on
        // each side for overlay tolerance; connection is by via, no
        // separate pads.
        let margin_mm = process.min_space_um() * 1e-3 / 2.0;
        let side = plate_side_mm + 2.0 * margin_mm;
        Ok(MimCapacitor {
            target,
            film,
            area: Area::from_mm2(side * side),
        })
    }

    /// Substrate area consumed, including overlay margin.
    pub fn area(&self) -> Area {
        self.area
    }

    /// The capacitance tolerance class (dielectric variation).
    pub fn tolerance(&self) -> Tolerance {
        self.film.tolerance()
    }
}

impl fmt::Display for MimCapacitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} MIM C ({}, {}, {})",
            self.target,
            self.film.name(),
            self.area,
            self.tolerance()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn process() -> ThinFilmProcess {
        ThinFilmProcess::summit_mcm_d()
    }

    #[test]
    fn table1_anchor_50pf() {
        let c = MimCapacitor::synthesize(Capacitance::from_pico(50.0), &process()).unwrap();
        assert!(
            (c.area().mm2() - 0.3).abs() < 0.05,
            "area {} should be ≈0.3 mm²",
            c.area()
        );
    }

    #[test]
    fn decap_area_is_huge() {
        // 3.3 nF at 100 pF/mm² ≈ 33 mm² plate — the decap problem.
        let c = MimCapacitor::synthesize_in_film(
            Capacitance::from_nano(3.3),
            &process(),
            DielectricFilm::si3n4(),
        )
        .unwrap();
        assert!((c.area().mm2() - 33.0).abs() < 1.0, "area {}", c.area());
        // Compare: an 0805 SMD footprint is 4.5 mm².
        assert!(c.area().mm2() > 7.0 * 4.5);
    }

    #[test]
    fn density_quote_10nf_per_cm2() {
        // 10 nF in Si₃N₄ should take ≈ 1 cm².
        let c = MimCapacitor::synthesize_in_film(
            Capacitance::from_nano(10.0),
            &process(),
            DielectricFilm::si3n4(),
        )
        .unwrap();
        assert!((c.area().cm2() - 1.0).abs() < 0.05, "area {}", c.area());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            MimCapacitor::synthesize(Capacitance::new(0.0), &process()),
            Err(SynthesisError::NonPositiveValue { .. })
        ));
        assert!(matches!(
            MimCapacitor::synthesize(Capacitance::from_pico(0.01), &process()),
            Err(SynthesisError::OutOfRange { .. })
        ));
        assert!(matches!(
            MimCapacitor::synthesize(Capacitance::from_micro(1.0), &process()),
            Err(SynthesisError::OutOfRange { .. })
        ));
    }

    #[test]
    fn film_choice_changes_area() {
        let high_k = MimCapacitor::synthesize(Capacitance::from_pico(100.0), &process()).unwrap();
        let si3n4 = MimCapacitor::synthesize_in_film(
            Capacitance::from_pico(100.0),
            &process(),
            DielectricFilm::si3n4(),
        )
        .unwrap();
        assert!(si3n4.area().mm2() > high_k.area().mm2());
    }

    #[test]
    fn display_names_film() {
        let c = MimCapacitor::synthesize(Capacitance::from_pico(50.0), &process()).unwrap();
        assert!(c.to_string().contains("BaTiO"));
    }

    proptest! {
        #[test]
        fn area_scales_linearly_with_capacitance(pf in 1.0f64..1000.0) {
            let p = process();
            let c1 = MimCapacitor::synthesize(Capacitance::from_pico(pf), &p).unwrap();
            let c2 = MimCapacitor::synthesize(Capacitance::from_pico(2.0 * pf), &p).unwrap();
            // Plate areas scale exactly 2×; margins make totals slightly
            // sublinear.
            let ratio = c2.area().mm2() / c1.area().mm2();
            prop_assert!(ratio > 1.6 && ratio < 2.05, "ratio {}", ratio);
        }

    }
}
