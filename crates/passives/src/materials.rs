//! Thin-film process description: materials and design rules.
//!
//! Models the MCM-D(Si) thin-film technology of the SUMMIT project: the
//! passives use the same process steps as the metal interconnections —
//! a sputtered resistive layer (CrSi), dielectric sandwiches
//! (Si₃N₄, BaTiO-class high-κ) and spiral inductors in the interconnect
//! metal.

use crate::tolerance::Tolerance;
use std::fmt;

/// A sputtered resistive film.
///
/// # Examples
///
/// ```
/// use ipass_passives::ResistiveFilm;
///
/// let crsi = ResistiveFilm::cr_si();
/// assert_eq!(crsi.sheet_resistance_ohm_sq(), 360.0);
/// assert_eq!(crsi.as_fabricated_tolerance().percent_value(), 15.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResistiveFilm {
    name: &'static str,
    sheet_ohm_sq: f64,
    as_fabricated: Tolerance,
}

impl ResistiveFilm {
    /// CrSi, 360 Ω/sq — the paper's example material.
    pub fn cr_si() -> ResistiveFilm {
        ResistiveFilm {
            name: "CrSi",
            sheet_ohm_sq: 360.0,
            as_fabricated: Tolerance::percent(15.0),
        }
    }

    /// Material name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sheet resistance in Ω per square.
    pub fn sheet_resistance_ohm_sq(&self) -> f64 {
        self.sheet_ohm_sq
    }

    /// Tolerance class as deposited (paper: "about ±15 %").
    pub fn as_fabricated_tolerance(&self) -> Tolerance {
        self.as_fabricated
    }
}

impl fmt::Display for ResistiveFilm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} Ω/sq)", self.name, self.sheet_ohm_sq)
    }
}

/// A capacitor dielectric film.
///
/// # Examples
///
/// ```
/// use ipass_passives::DielectricFilm;
///
/// // The paper: "capacitors up to 100 pF/mm² (10 nF/cm²)".
/// assert_eq!(DielectricFilm::si3n4().density_pf_mm2(), 100.0);
/// assert!(DielectricFilm::ba_ti_o().density_pf_mm2() > 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DielectricFilm {
    name: &'static str,
    density_pf_mm2: f64,
    tolerance: Tolerance,
}

impl DielectricFilm {
    /// Si₃N₄ sandwich: 100 pF/mm² (10 nF/cm²), the paper's headline
    /// density; used for larger capacitors (decoupling).
    pub fn si3n4() -> DielectricFilm {
        DielectricFilm {
            name: "Si3N4",
            density_pf_mm2: 100.0,
            tolerance: Tolerance::percent(10.0),
        }
    }

    /// BaTiO-class high-κ film: ≈180 pF/mm², used for small RF
    /// capacitors (Table 1's 50 pF in 0.3 mm² implies this density).
    pub fn ba_ti_o() -> DielectricFilm {
        DielectricFilm {
            name: "BaTiO",
            density_pf_mm2: 180.0,
            tolerance: Tolerance::percent(15.0),
        }
    }

    /// Material name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Capacitance density in pF/mm².
    pub fn density_pf_mm2(&self) -> f64 {
        self.density_pf_mm2
    }

    /// Capacitance tolerance class (thickness/κ variation).
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }
}

impl fmt::Display for DielectricFilm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} pF/mm²)", self.name, self.density_pf_mm2)
    }
}

/// The complete thin-film process card used for synthesis.
///
/// # Examples
///
/// ```
/// use ipass_passives::ThinFilmProcess;
///
/// let p = ThinFilmProcess::summit_mcm_d();
/// assert_eq!(p.min_line_um(), 20.0);
/// assert!(p.metal_sheet_mohm_sq() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThinFilmProcess {
    name: &'static str,
    min_line_um: f64,
    min_space_um: f64,
    contact_pad_um: f64,
    metal_sheet_mohm_sq: f64,
    metal_thickness_um: f64,
    resistor_film: ResistiveFilm,
    capacitor_film: DielectricFilm,
    decoupling_film: DielectricFilm,
    substrate_loss_factor: f64,
}

impl ThinFilmProcess {
    /// The SUMMIT-style MCM-D(Si) process used throughout the paper's
    /// case study: 20 µm lines/spaces for passives, 5 µm electroplated
    /// Cu interconnect, CrSi resistors, Si₃N₄/BaTiO capacitors.
    pub fn summit_mcm_d() -> ThinFilmProcess {
        ThinFilmProcess {
            name: "SUMMIT MCM-D(Si)",
            min_line_um: 20.0,
            min_space_um: 20.0,
            contact_pad_um: 70.0,
            metal_sheet_mohm_sq: 7.0,
            metal_thickness_um: 5.0,
            resistor_film: ResistiveFilm::cr_si(),
            capacitor_film: DielectricFilm::ba_ti_o(),
            decoupling_film: DielectricFilm::si3n4(),
            substrate_loss_factor: 1.35,
        }
    }

    /// Minimum line width for passives, in µm.
    pub fn min_line_um(&self) -> f64 {
        self.min_line_um
    }

    /// Minimum line spacing, in µm.
    pub fn min_space_um(&self) -> f64 {
        self.min_space_um
    }

    /// Contact/terminal pad edge length, in µm.
    pub fn contact_pad_um(&self) -> f64 {
        self.contact_pad_um
    }

    /// Interconnect metal sheet resistance, in mΩ per square (DC).
    pub fn metal_sheet_mohm_sq(&self) -> f64 {
        self.metal_sheet_mohm_sq
    }

    /// Interconnect metal thickness, in µm (drives the skin-effect
    /// resistance rise).
    pub fn metal_thickness_um(&self) -> f64 {
        self.metal_thickness_um
    }

    /// The resistive film used for integrated resistors.
    pub fn resistor_film(&self) -> &ResistiveFilm {
        &self.resistor_film
    }

    /// The dielectric used for small RF capacitors.
    pub fn capacitor_film(&self) -> &DielectricFilm {
        &self.capacitor_film
    }

    /// The dielectric used for large decoupling capacitors.
    pub fn decoupling_film(&self) -> &DielectricFilm {
        &self.decoupling_film
    }

    /// Extra conductor-loss factor capturing substrate (eddy/dielectric)
    /// losses of spirals on conductive silicon (≥ 1).
    pub fn substrate_loss_factor(&self) -> f64 {
        self.substrate_loss_factor
    }
}

impl Default for ThinFilmProcess {
    fn default() -> ThinFilmProcess {
        ThinFilmProcess::summit_mcm_d()
    }
}

impl fmt::Display for ThinFilmProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}µm lines, {} resistors, {} capacitors)",
            self.name, self.min_line_um, self.resistor_film, self.capacitor_film
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_values() {
        // "with a specific resistance of 360 Ω/sq (CrSi)".
        assert_eq!(ResistiveFilm::cr_si().sheet_resistance_ohm_sq(), 360.0);
        // "Tolerances are about 15 %".
        assert_eq!(
            ResistiveFilm::cr_si().as_fabricated_tolerance(),
            Tolerance::percent(15.0)
        );
        // "capacitors up to 100 pF/mm² (10 nF/cm²)".
        assert_eq!(DielectricFilm::si3n4().density_pf_mm2(), 100.0);
    }

    #[test]
    fn process_accessors() {
        let p = ThinFilmProcess::summit_mcm_d();
        assert_eq!(p.resistor_film().name(), "CrSi");
        assert_eq!(p.capacitor_film().name(), "BaTiO");
        assert_eq!(p.decoupling_film().name(), "Si3N4");
        assert!(p.substrate_loss_factor() >= 1.0);
        assert_eq!(ThinFilmProcess::default(), ThinFilmProcess::summit_mcm_d());
    }

    #[test]
    fn displays_are_descriptive() {
        assert!(ResistiveFilm::cr_si().to_string().contains("CrSi"));
        assert!(DielectricFilm::ba_ti_o().to_string().contains("pF/mm²"));
        assert!(ThinFilmProcess::summit_mcm_d()
            .to_string()
            .contains("SUMMIT"));
    }
}
