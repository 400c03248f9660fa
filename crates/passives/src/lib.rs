//! Passive component models: SMD case sizes and thin-film integrated
//! passives.
//!
//! This crate provides the component-level substrate of the
//! integrated-passives methodology:
//!
//! * [SMD case sizes](SmdSize) with *pure component* vs *footprint* areas
//!   (the paper's Fig. 1 argument: bodies shrink, mounting overhead does
//!   not),
//! * [E-series](eseries) preferred value snapping,
//! * the thin-film [process card](ThinFilmProcess) (the CrSi resistive
//!   layer, Si₃N₄ and BaTiO dielectrics, the SUMMIT-style MCM-D metal
//!   stack),
//! * synthesis of integrated components from target values:
//!   [meander resistors](ThinFilmResistor), [MIM capacitors](MimCapacitor)
//!   and [square spiral inductors](SpiralInductor) with inductance,
//!   conductor-loss Q(f) and self-resonance models,
//! * [tolerance](Tolerance) classes with truncated-normal value sampling
//!   for Monte Carlo.
//!
//! The synthesized areas reproduce the paper's Table 1 anchors: a 100 kΩ
//! CrSi resistor occupies ≈ 0.25 mm², a 50 pF capacitor ≈ 0.3 mm² and a
//! 40 nH inductor ≈ 1 mm².
//!
//! # Examples
//!
//! ```
//! use ipass_passives::{SmdSize, SpiralInductor, ThinFilmProcess};
//! use ipass_units::{Frequency, Inductance};
//!
//! // SMD bodies shrink faster than their footprints (Fig. 1):
//! let body_ratio = SmdSize::I0201.body_area() / SmdSize::I0805.body_area();
//! let foot_ratio = SmdSize::I0201.footprint_area() / SmdSize::I0805.footprint_area();
//! assert!(body_ratio < 0.1 && foot_ratio > 0.4);
//!
//! // A 40 nH spiral in the default MCM-D process needs about 1 mm²:
//! let process = ThinFilmProcess::summit_mcm_d();
//! let spiral = SpiralInductor::synthesize(Inductance::from_nano(40.0), &process)?;
//! assert!((spiral.area().mm2() - 1.0).abs() < 0.3);
//! // and its Q is decent in the GHz range but poor at IF frequencies:
//! assert!(spiral.q_factor(Frequency::from_giga(1.575)) > 15.0);
//! assert!(spiral.q_factor(Frequency::from_mega(175.0)) < 15.0);
//! # Ok::<(), ipass_passives::SynthesisError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capacitor;
mod error;
pub mod eseries;
mod inductor;
mod materials;
mod resistor;
mod smd;
mod tolerance;

pub use capacitor::MimCapacitor;
pub use error::SynthesisError;
pub use inductor::SpiralInductor;
pub use materials::{DielectricFilm, ResistiveFilm, ThinFilmProcess};
pub use resistor::ThinFilmResistor;
pub use smd::{smd_area_series, SmdSize};
pub use tolerance::Tolerance;
