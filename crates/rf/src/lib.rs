//! RF network analysis and filter synthesis for the integrated-passives
//! methodology.
//!
//! The paper's performance-assessment step (§4.1) asks, for every
//! candidate build-up: *do the filters built from this technology's
//! passives still meet their specs?* This crate provides everything
//! needed to answer that from first principles:
//!
//! * [`Complex`] arithmetic and [`Abcd`] two-port (chain) matrices with
//!   S-parameter conversion ([`Abcd::to_s_params_between`] supports
//!   unequal terminations),
//! * lossy [elements](Immittance) composed into [`Ladder`] networks,
//! * classic low-pass prototypes ([`butterworth_g`], [`chebyshev_g`])
//!   and the LP→BP transformation ([`bandpass`]),
//! * the Cauer-style [`image_reject_bandpass`] with a finite
//!   transmission zero at the image frequency (the GPS LNA output
//!   filter),
//! * [`FilterSpec`] scoring — the paper's "relation of specified losses
//!   to calculated losses" — and [`tolerance_yield`] Monte Carlo,
//! * the receiver-chain [`ChainBudget`] (gain and Friis noise figure).
//!
//! # Examples
//!
//! Reproducing the §4.1 performance scores for the 175 MHz IF filter:
//!
//! ```
//! use ipass_rf::{bandpass, Approximation, ElementLosses, FilterSpec};
//! use ipass_units::Frequency;
//!
//! let f0 = Frequency::from_mega(175.0);
//! let spec = FilterSpec::new("IF filter", f0, 3.0);
//! let design = |q_l: f64, q_c: f64| {
//!     bandpass(
//!         2,
//!         Approximation::Chebyshev { ripple_db: 0.5 },
//!         f0,
//!         Frequency::from_mega(20.0),
//!         50.0,
//!         ElementLosses::q(q_l, q_c),
//!     )
//! };
//! // SMD elements: meets spec (score 1.0).
//! assert_eq!(spec.evaluate(design(45.0, 200.0).ladder()).performance_score(), 1.0);
//! // Fully integrated: the paper's ≈0.45.
//! let ip = spec.evaluate(design(13.8, 95.0).ladder()).performance_score();
//! assert!((0.38..0.52).contains(&ip));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod budget;
mod complex;
mod design;
mod elements;
mod montecarlo;
mod prototype;
mod spec;
mod twoport;

pub use budget::{BudgetPoint, CascadeStage, ChainBudget};
pub use complex::Complex;
pub use design::{bandpass, image_reject_bandpass, Approximation, BandpassDesign, ElementLosses};
pub use elements::{Immittance, Loss};
pub use montecarlo::{tolerance_yield, tolerance_yield_with, ToleranceYield};
pub use prototype::{butterworth_g, chebyshev_g, chebyshev_load_g};
pub use spec::{FilterSpec, SpecReport, StopbandPoint};
pub use twoport::{linspace, Abcd, Branch, Ladder, SParams};
