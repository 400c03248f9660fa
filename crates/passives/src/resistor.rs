//! Integrated thin-film resistor synthesis.
//!
//! The paper: "Integrated resistor layers are sputtered […] Resistors are
//! realized as 'normal' interconnection lines, for larger values a
//! meander structure is used."

use crate::error::SynthesisError;
use crate::materials::ThinFilmProcess;
use crate::tolerance::Tolerance;
use ipass_units::{Area, Resistance};
use std::fmt;

/// Effective squares contributed by one meander corner (standard
/// conformal-mapping result).
const CORNER_SQUARES: f64 = 0.56;

/// Smallest/largest realizable square counts.
const MIN_SQUARES: f64 = 0.05;
const MAX_SQUARES: f64 = 50_000.0;

/// A synthesized meander (or straight-line) thin-film resistor.
///
/// # Examples
///
/// ```
/// use ipass_passives::{ThinFilmProcess, ThinFilmResistor};
/// use ipass_units::Resistance;
///
/// let process = ThinFilmProcess::summit_mcm_d();
///
/// // Table 1: a 100 kΩ resistor occupies ≈ 0.25 mm².
/// let r = ThinFilmResistor::synthesize(Resistance::from_kilo(100.0), &process)?;
/// assert!((r.area().mm2() - 0.25).abs() < 0.05);
///
/// // §2: "a 200 Ω resistor would require an area of 0.01 mm²".
/// let small = ThinFilmResistor::synthesize(Resistance::new(200.0), &process)?;
/// assert!((small.area().mm2() - 0.01).abs() < 0.005);
/// # Ok::<(), ipass_passives::SynthesisError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThinFilmResistor {
    target: Resistance,
    squares: f64,
    width_um: f64,
    legs: u32,
    leg_length_um: f64,
    area: Area,
    tolerance: Tolerance,
}

impl ThinFilmResistor {
    /// Synthesize a resistor in the process' resistive film at minimum
    /// line width.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] for non-positive targets or values whose
    /// square count falls outside the realizable range.
    pub fn synthesize(
        target: Resistance,
        process: &ThinFilmProcess,
    ) -> Result<ThinFilmResistor, SynthesisError> {
        ThinFilmResistor::synthesize_with_width(target, process, process.min_line_um())
    }

    /// Synthesize with an explicit line width (µm); wider lines improve
    /// power handling and matching at the cost of area.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] for non-positive targets, widths below
    /// the process minimum, or out-of-range square counts.
    pub fn synthesize_with_width(
        target: Resistance,
        process: &ThinFilmProcess,
        width_um: f64,
    ) -> Result<ThinFilmResistor, SynthesisError> {
        let r = target.ohms();
        if !(r.is_finite() && r > 0.0) {
            return Err(SynthesisError::NonPositiveValue {
                what: "resistance",
                value: r,
            });
        }
        if width_um < process.min_line_um() {
            return Err(SynthesisError::OutOfRange {
                what: "resistor line width (µm)",
                value: width_um,
                min: process.min_line_um(),
                max: f64::INFINITY,
            });
        }
        let film = process.resistor_film();
        let sheet = film.sheet_resistance_ohm_sq();
        let squares = r / sheet;
        if !(MIN_SQUARES..=MAX_SQUARES).contains(&squares) {
            return Err(SynthesisError::OutOfRange {
                what: "resistance",
                value: r,
                min: MIN_SQUARES * sheet,
                max: MAX_SQUARES * sheet,
            });
        }

        let w = width_um;
        let s = process.min_space_um();
        let pad = process.contact_pad_um();
        let pad_area_mm2 = 2.0 * (pad * 1e-3) * (pad * 1e-3);

        // Search the leg count for the smallest bounding area.
        let mut best: Option<(u32, f64, f64)> = None; // (legs, leg_len_um, area_mm2)
        let max_legs = (squares.sqrt().ceil() as u32 * 2 + 4).max(2);
        for legs in 1..=max_legs {
            let corner_squares = CORNER_SQUARES * 2.0 * f64::from(legs - 1);
            let line_squares = squares - corner_squares;
            if line_squares <= 0.0 {
                break;
            }
            let leg_len = line_squares / f64::from(legs) * w;
            if legs > 1 && leg_len < w {
                continue; // legs degenerate below one square each
            }
            let region_w = f64::from(legs) * (w + s) - s;
            let region_h = leg_len;
            // Clearance of one spacing around the meander region.
            let area_mm2 =
                ((region_w + 2.0 * s) * 1e-3) * ((region_h + 2.0 * s) * 1e-3) + pad_area_mm2;
            if best.is_none_or(|(_, _, a)| area_mm2 < a) {
                best = Some((legs, leg_len, area_mm2));
            }
        }
        let (legs, leg_length_um, area_mm2) = best.ok_or(SynthesisError::OutOfRange {
            what: "resistance",
            value: r,
            min: MIN_SQUARES * sheet,
            max: MAX_SQUARES * sheet,
        })?;

        Ok(ThinFilmResistor {
            target,
            squares,
            width_um: w,
            legs,
            leg_length_um,
            area: Area::from_mm2(area_mm2),
            tolerance: film.as_fabricated_tolerance(),
        })
    }

    /// The number of film squares.
    pub fn squares(&self) -> f64 {
        self.squares
    }

    /// The number of meander legs (1 = straight line).
    pub fn legs(&self) -> u32 {
        self.legs
    }

    /// The length of one meander leg in µm.
    pub fn leg_length_um(&self) -> f64 {
        self.leg_length_um
    }

    /// Substrate area consumed, including terminal pads and clearance.
    pub fn area(&self) -> Area {
        self.area
    }

    /// The as-fabricated tolerance class of the resistive film.
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }
}

impl fmt::Display for ThinFilmResistor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} thin-film R ({:.1} sq, {} leg(s), {}, {})",
            self.target,
            self.squares,
            self.legs,
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
    fn table1_anchor_100k() {
        let r = ThinFilmResistor::synthesize(Resistance::from_kilo(100.0), &process()).unwrap();
        assert!(
            (r.area().mm2() - 0.25).abs() < 0.05,
            "area {} should be ≈0.25 mm²",
            r.area()
        );
        assert!(
            r.legs() > 5,
            "100 kΩ needs a meander, got {} legs",
            r.legs()
        );
        assert!((r.squares() - 277.8).abs() < 0.1);
    }

    #[test]
    fn paper_200_ohm_example() {
        let r = ThinFilmResistor::synthesize(Resistance::new(200.0), &process()).unwrap();
        assert!(
            (r.area().mm2() - 0.01).abs() < 0.005,
            "area {} should be ≈0.01 mm²",
            r.area()
        );
        assert_eq!(r.legs(), 1);
    }

    #[test]
    fn wider_lines_take_more_area() {
        let narrow =
            ThinFilmResistor::synthesize_with_width(Resistance::from_kilo(10.0), &process(), 20.0)
                .unwrap();
        let wide =
            ThinFilmResistor::synthesize_with_width(Resistance::from_kilo(10.0), &process(), 60.0)
                .unwrap();
        assert!(wide.area().mm2() > narrow.area().mm2());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            ThinFilmResistor::synthesize(Resistance::new(0.0), &process()),
            Err(SynthesisError::NonPositiveValue { .. })
        ));
        assert!(matches!(
            ThinFilmResistor::synthesize(Resistance::new(1.0), &process()),
            Err(SynthesisError::OutOfRange { .. })
        ));
        assert!(matches!(
            ThinFilmResistor::synthesize(Resistance::from_mega(100.0), &process()),
            Err(SynthesisError::OutOfRange { .. })
        ));
        assert!(matches!(
            ThinFilmResistor::synthesize_with_width(Resistance::new(200.0), &process(), 5.0),
            Err(SynthesisError::OutOfRange { .. })
        ));
    }

    #[test]
    fn display_is_informative() {
        let r = ThinFilmResistor::synthesize(Resistance::from_kilo(100.0), &process()).unwrap();
        let s = r.to_string();
        assert!(s.contains("100 kΩ") && s.contains("±15%"));
    }

    proptest! {
        #[test]
        fn area_grows_with_resistance(r1 in 100.0f64..1e6, factor in 1.5f64..10.0) {
            let p = process();
            let small = ThinFilmResistor::synthesize(Resistance::new(r1), &p).unwrap();
            let large = ThinFilmResistor::synthesize(Resistance::new(r1 * factor), &p).unwrap();
            prop_assert!(large.area().mm2() >= small.area().mm2() * 0.95,
                "{} -> {}, {} -> {}", r1, small.area(), r1 * factor, large.area());
        }

        #[test]
        fn synthesized_squares_match_target(r in 50.0f64..1e6) {
            let p = process();
            let res = ThinFilmResistor::synthesize(Resistance::new(r), &p).unwrap();
            prop_assert!((res.squares() * 360.0 - r).abs() < 1e-6);
        }

        #[test]
        fn meander_region_is_roughly_square(r in 1e4f64..1e6) {
            // The optimizer should not produce extreme aspect ratios.
            let p = process();
            let res = ThinFilmResistor::synthesize(Resistance::new(r), &p).unwrap();
            if res.legs() > 3 {
                let w = f64::from(res.legs()) * 40.0;
                let aspect = w.max(res.leg_length_um()) / w.min(res.leg_length_um());
                prop_assert!(aspect < 4.0, "aspect {} at {}Ω", aspect, r);
            }
        }
    }
}
