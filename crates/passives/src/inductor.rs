//! Square spiral inductor synthesis with inductance, loss and
//! self-resonance models.
//!
//! The paper: "Inductors are realized as spiral-shaped interconnection
//! lines, and the value is determined by the number of turns and the line
//! width and line spacing." Inductance uses the Mohan et al. current-sheet
//! expression for square spirals; conductor loss combines DC sheet
//! resistance, a skin-effect rise and a substrate-loss factor. This is
//! what makes the paper's key performance observation emerge naturally:
//! *Q is decent in the 1–2 GHz range but collapses at the 175 MHz IF*,
//! because ωL shrinks an order of magnitude while the series resistance
//! barely drops.

use crate::error::SynthesisError;
use crate::materials::ThinFilmProcess;
use ipass_units::{Area, Frequency, Inductance};
use std::fmt;

/// Current-sheet coefficients for square spirals (Mohan et al. 1999).
const K1: f64 = 2.34;
const K2: f64 = 2.75;

const MU0: f64 = 4.0e-7 * std::f64::consts::PI;

/// Hollow fraction: inner diameter ≥ this × outer diameter (keeps the
/// lossy innermost turns away and the model accurate).
const MIN_HOLLOW_RATIO: f64 = 0.25;

/// Parasitic capacitance to the (oxide-isolated) silicon substrate per
/// mm² of coil footprint, in pF.
const PARASITIC_PF_PER_MM2: f64 = 0.08;

/// Realizable inductance range.
const MIN_HENRIES: f64 = 0.5e-9;
const MAX_HENRIES: f64 = 1e-6;

/// Largest spiral considered, in µm.
const MAX_OUTER_UM: f64 = 20_000.0;

/// A synthesized square spiral inductor.
///
/// # Examples
///
/// ```
/// use ipass_passives::{SpiralInductor, ThinFilmProcess};
/// use ipass_units::{Frequency, Inductance};
///
/// let process = ThinFilmProcess::summit_mcm_d();
/// // Table 1: a 40 nH inductor occupies ≈ 1 mm².
/// let l = SpiralInductor::synthesize(Inductance::from_nano(40.0), &process)?;
/// assert!(l.area().mm2() > 0.6 && l.area().mm2() < 1.3);
/// assert!(l.turns() >= 5);
///
/// // Q collapses from RF to IF:
/// let q_rf = l.q_factor(Frequency::from_giga(1.575));
/// let q_if = l.q_factor(Frequency::from_mega(175.0));
/// assert!(q_rf > 3.0 * q_if);
/// # Ok::<(), ipass_passives::SynthesisError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpiralInductor {
    target: Inductance,
    turns: u32,
    outer_um: f64,
    inner_um: f64,
    width_um: f64,
    space_um: f64,
    dc_resistance: f64,
    metal_thickness_um: f64,
    metal_rho_ohm_m: f64,
    substrate_loss_factor: f64,
    parasitic_pf: f64,
}

impl SpiralInductor {
    /// Synthesize the smallest spiral realizing `target` at the process'
    /// minimum line width.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] for non-positive targets or values no
    /// spiral within the size limits can realize.
    pub fn synthesize(
        target: Inductance,
        process: &ThinFilmProcess,
    ) -> Result<SpiralInductor, SynthesisError> {
        SpiralInductor::synthesize_with_width(target, process, process.min_line_um())
    }

    /// Synthesize with an explicit line width (µm). Wider lines cut the
    /// series resistance — the lever for acceptable Q at low frequencies,
    /// paid for in area.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] for non-positive targets, widths below
    /// the process minimum, or unrealizable values.
    pub fn synthesize_with_width(
        target: Inductance,
        process: &ThinFilmProcess,
        width_um: f64,
    ) -> Result<SpiralInductor, SynthesisError> {
        let l = target.henries();
        if !(l.is_finite() && l > 0.0) {
            return Err(SynthesisError::NonPositiveValue {
                what: "inductance",
                value: l,
            });
        }
        if !(MIN_HENRIES..=MAX_HENRIES).contains(&l) {
            return Err(SynthesisError::OutOfRange {
                what: "inductance",
                value: l,
                min: MIN_HENRIES,
                max: MAX_HENRIES,
            });
        }
        if width_um < process.min_line_um() {
            return Err(SynthesisError::OutOfRange {
                what: "spiral line width (µm)",
                value: width_um,
                min: process.min_line_um(),
                max: f64::INFINITY,
            });
        }
        let w = width_um;
        let s = process.min_space_um();

        let mut best: Option<(u32, f64)> = None; // (turns, outer_um)
        for n in 1..=30u32 {
            let radial = f64::from(n) * w + f64::from(n - 1) * s;
            let d_min = (2.0 * radial / (1.0 - MIN_HOLLOW_RATIO)).max(radial * 2.0 + w);
            if d_min > MAX_OUTER_UM {
                break;
            }
            let l_lo = inductance_um(n, d_min, radial);
            let l_hi = inductance_um(n, MAX_OUTER_UM, radial);
            if l < l_lo || l > l_hi {
                continue;
            }
            // Bisect outer diameter: L is monotone increasing in it.
            let (mut lo, mut hi) = (d_min, MAX_OUTER_UM);
            for _ in 0..80 {
                let mid = 0.5 * (lo + hi);
                if inductance_um(n, mid, radial) < l {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let outer = 0.5 * (lo + hi);
            if best.is_none_or(|(_, o)| outer < o) {
                best = Some((n, outer));
            }
        }
        let (turns, outer_um) = best.ok_or(SynthesisError::OutOfRange {
            what: "inductance",
            value: l,
            min: MIN_HENRIES,
            max: MAX_HENRIES,
        })?;

        let radial = f64::from(turns) * w + f64::from(turns - 1) * s;
        let inner_um = outer_um - 2.0 * radial;
        let d_avg_um = 0.5 * (outer_um + inner_um);
        let length_mm = 4.0 * f64::from(turns) * d_avg_um * 1e-3;
        let sheet_ohm = process.metal_sheet_mohm_sq() * 1e-3;
        let dc_resistance = sheet_ohm * (length_mm * 1e3) / w;
        let footprint_mm2 = (outer_um * 1e-3) * (outer_um * 1e-3);
        Ok(SpiralInductor {
            target,
            turns,
            outer_um,
            inner_um,
            width_um: w,
            space_um: s,
            dc_resistance,
            metal_thickness_um: process.metal_thickness_um(),
            metal_rho_ohm_m: sheet_ohm * process.metal_thickness_um() * 1e-6,
            substrate_loss_factor: process.substrate_loss_factor(),
            parasitic_pf: PARASITIC_PF_PER_MM2 * footprint_mm2,
        })
    }

    /// Synthesize meeting a Q requirement at `f`, searching line widths
    /// upward from the process minimum; returns the smallest-area
    /// solution that meets `q_min`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError`] when the value is unrealizable or no
    /// width up to 120 µm reaches `q_min`.
    pub fn synthesize_for_q(
        target: Inductance,
        process: &ThinFilmProcess,
        f: Frequency,
        q_min: f64,
    ) -> Result<SpiralInductor, SynthesisError> {
        let mut width = process.min_line_um();
        let mut last_err = None;
        while width <= 120.0 {
            match SpiralInductor::synthesize_with_width(target, process, width) {
                Ok(spiral) => {
                    if spiral.q_factor(f) >= q_min {
                        return Ok(spiral);
                    }
                }
                Err(e) => last_err = Some(e),
            }
            width += 10.0;
        }
        Err(last_err.unwrap_or(SynthesisError::OutOfRange {
            what: "inductor Q",
            value: q_min,
            min: 0.0,
            max: 0.0,
        }))
    }

    /// Number of turns.
    pub fn turns(&self) -> u32 {
        self.turns
    }

    /// Outer diameter in µm.
    pub fn outer_um(&self) -> f64 {
        self.outer_um
    }

    /// Inner diameter in µm.
    pub fn inner_um(&self) -> f64 {
        self.inner_um
    }

    /// Line width in µm.
    pub fn width_um(&self) -> f64 {
        self.width_um
    }

    /// Substrate area consumed (outer diameter square plus one spacing of
    /// clearance all around).
    pub fn area(&self) -> Area {
        let side = (self.outer_um + 2.0 * self.space_um) * 1e-3;
        Area::rect_mm(side, side)
    }

    /// AC series resistance at `f`: DC resistance × skin-effect rise ×
    /// substrate-loss factor.
    pub fn ac_resistance_ohm(&self, f: Frequency) -> f64 {
        let t = self.metal_thickness_um * 1e-6;
        let delta = (self.metal_rho_ohm_m / (std::f64::consts::PI * f.hertz() * MU0)).sqrt();
        let x = t / delta;
        let skin = if x < 1e-6 {
            1.0
        } else {
            x / (1.0 - (-x).exp())
        };
        self.dc_resistance * skin * self.substrate_loss_factor
    }

    /// Self-resonant frequency.
    pub fn self_resonance(&self) -> Frequency {
        let c = self.parasitic_pf * 1e-12;
        Frequency::new(1.0 / (2.0 * std::f64::consts::PI * (self.target.henries() * c).sqrt()))
    }

    /// Quality factor at `f`: `ωL/R_ac`, derated by the self-resonance
    /// roll-off `(1 − (f/f_SR)²)`. Returns 0 at or above self-resonance.
    pub fn q_factor(&self, f: Frequency) -> f64 {
        let ratio = f.hertz() / self.self_resonance().hertz();
        if ratio >= 1.0 {
            return 0.0;
        }
        let q_conductor = f.angular() * self.target.henries() / self.ac_resistance_ohm(f);
        q_conductor * (1.0 - ratio * ratio)
    }
}

/// Mohan et al. current-sheet inductance for a square spiral, µm inputs,
/// henries out.
fn inductance_um(turns: u32, outer_um: f64, radial_um: f64) -> f64 {
    let inner_um = outer_um - 2.0 * radial_um;
    let d_avg = 0.5 * (outer_um + inner_um) * 1e-6;
    let fill = (outer_um - inner_um) / (outer_um + inner_um);
    K1 * MU0 * f64::from(turns).powi(2) * d_avg / (1.0 + K2 * fill)
}

impl fmt::Display for SpiralInductor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} spiral ({} turns, ⌀{:.0} µm, w {:.0} µm, {}, R_dc {:.2} Ω)",
            self.target,
            self.turns,
            self.outer_um,
            self.width_um,
            self.area(),
            self.dc_resistance
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
    fn table1_anchor_40nh() {
        let l = SpiralInductor::synthesize(Inductance::from_nano(40.0), &process()).unwrap();
        assert!(
            l.area().mm2() > 0.6 && l.area().mm2() < 1.3,
            "area {} should be ≈1 mm²",
            l.area()
        );
    }

    #[test]
    fn area_more_than_doubles_from_5_to_60_nh() {
        // Discrete turn counts allow local plateaus, so only the trend
        // across the range is asserted.
        let area = |nh: f64| {
            SpiralInductor::synthesize(Inductance::from_nano(nh), &process())
                .unwrap()
                .area()
                .mm2()
        };
        let (first, last) = (area(5.0), area(60.0));
        assert!(last > 2.0 * first, "area {first} → {last}");
    }

    #[test]
    fn synthesized_inductance_matches_target() {
        for nh in [2.0, 10.0, 40.0, 100.0, 220.0] {
            let l = SpiralInductor::synthesize(Inductance::from_nano(nh), &process()).unwrap();
            let radial =
                f64::from(l.turns()) * l.width_um() + f64::from(l.turns() - 1) * l.space_um;
            let realized = inductance_um(l.turns(), l.outer_um(), radial);
            assert!(
                (realized - nh * 1e-9).abs() / (nh * 1e-9) < 1e-3,
                "{nh} nH realized as {realized}"
            );
        }
    }

    #[test]
    fn q_is_good_at_rf_poor_at_if() {
        // The paper's §4.1 observation, directly from the physics.
        let l = SpiralInductor::synthesize(Inductance::from_nano(40.0), &process()).unwrap();
        let q_rf = l.q_factor(Frequency::from_giga(1.575));
        let q_if = l.q_factor(Frequency::from_mega(175.0));
        assert!(q_rf > 12.0, "q_rf {q_rf}");
        assert!(q_if < 6.0, "q_if {q_if}");
    }

    #[test]
    fn wide_lines_rescue_if_q() {
        // An IF-filter inductor (~107 nH) with wide lines reaches Q ≈ 12
        // at 175 MHz, matching the "borderline" IF filter discussion.
        let f = Frequency::from_mega(175.0);
        let l = SpiralInductor::synthesize_for_q(Inductance::from_nano(107.0), &process(), f, 10.0)
            .unwrap();
        assert!(l.q_factor(f) >= 10.0);
        assert!(l.width_um() > 20.0);
        assert!(
            l.area().mm2() > 2.0,
            "wide-line spiral is big: {}",
            l.area()
        );
    }

    #[test]
    fn q_requirement_can_be_unreachable() {
        let err = SpiralInductor::synthesize_for_q(
            Inductance::from_nano(300.0),
            &process(),
            Frequency::from_mega(175.0),
            500.0,
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::OutOfRange { .. }));
    }

    #[test]
    fn self_resonance_is_above_operating_band() {
        let l = SpiralInductor::synthesize(Inductance::from_nano(40.0), &process()).unwrap();
        assert!(l.self_resonance().gigahertz() > 2.0);
    }

    #[test]
    fn q_zero_past_srf() {
        let l = SpiralInductor::synthesize(Inductance::from_nano(500.0), &process()).unwrap();
        assert_eq!(l.q_factor(Frequency::from_giga(20.0)), 0.0);
    }

    #[test]
    fn hollow_ratio_respected() {
        for nh in [5.0, 40.0, 150.0] {
            let l = SpiralInductor::synthesize(Inductance::from_nano(nh), &process()).unwrap();
            assert!(
                l.inner_um() >= MIN_HOLLOW_RATIO * l.outer_um() - 1.0,
                "{nh} nH: inner {} outer {}",
                l.inner_um(),
                l.outer_um()
            );
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(SpiralInductor::synthesize(Inductance::new(0.0), &process()).is_err());
        assert!(SpiralInductor::synthesize(Inductance::from_nano(0.1), &process()).is_err());
        assert!(SpiralInductor::synthesize(Inductance::from_micro(5.0), &process()).is_err());
        assert!(SpiralInductor::synthesize_with_width(
            Inductance::from_nano(40.0),
            &process(),
            5.0
        )
        .is_err());
    }

    #[test]
    fn display_mentions_turns() {
        let l = SpiralInductor::synthesize(Inductance::from_nano(40.0), &process()).unwrap();
        assert!(l.to_string().contains("turns"));
    }

    proptest! {
        #[test]
        fn area_grows_with_inductance(nh in 1.0f64..300.0) {
            let p = process();
            let a = SpiralInductor::synthesize(Inductance::from_nano(nh), &p).unwrap();
            let b = SpiralInductor::synthesize(Inductance::from_nano(nh * 2.0), &p).unwrap();
            prop_assert!(b.area().mm2() > a.area().mm2() * 0.9);
        }

        #[test]
        fn q_positive_below_srf(nh in 1.0f64..300.0, mhz in 50.0f64..1000.0) {
            let p = process();
            let l = SpiralInductor::synthesize(Inductance::from_nano(nh), &p).unwrap();
            let f = Frequency::from_mega(mhz);
            if f.hertz() < l.self_resonance().hertz() {
                prop_assert!(l.q_factor(f) > 0.0);
            }
        }

        #[test]
        fn mohan_formula_is_monotone_in_outer(n in 1u32..12, d1 in 500.0f64..5000.0, extra in 10.0f64..2000.0) {
            let radial = f64::from(n) * 20.0 + f64::from(n - 1) * 20.0;
            prop_assume!(d1 > 2.0 * radial / (1.0 - MIN_HOLLOW_RATIO));
            let l1 = inductance_um(n, d1, radial);
            let l2 = inductance_um(n, d1 + extra, radial);
            prop_assert!(l2 > l1);
        }
    }
}
