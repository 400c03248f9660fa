//! The paper's methodology: generate build-ups, select per-component
//! technologies, and derive a figure of merit.
//!
//! The five steps of §4 map onto this crate as follows:
//!
//! 1. **Generate viable build-up implementations** — [`BuildUp`],
//!    [`BuildUp::enumerate`], [`BuildUp::paper_solutions`].
//! 2. **Assess performance** — delegated to `ipass-rf`; the resulting
//!    score enters the [`CandidateScore`].
//! 3. **Calculate the substrate area** — [`BuildUpPlan`] aggregates the
//!    selected component areas; [`BuildUpPlan::area`] applies the
//!    `ipass-layout` sizing rules.
//! 4. **Calculate the cost including test and yield aspects** —
//!    [`BuildUpPlan::production_flow`] assembles an `ipass-moe` flow from
//!    a [`CostInputs`] table (the shape of the paper's Table 2).
//! 5. **Make a decision** — [`DecisionTable::rank`] computes the paper's
//!    Fig. 6 product-of-factors figure of merit.
//!
//! The steps compose directly: [`BuildUp::plan`] →
//! [`BuildUpPlan::area`] → [`BuildUpPlan::production_flow`] →
//! `Flow::analyze` → [`DecisionTable::rank`]. `ipass-gps` runs the
//! paper's study that way, planning each build-up against its own BOM
//! (the filter items differ per build-up).
//!
//! The key algorithmic piece is the **passives-optimized** selection
//! ([`PassivePolicy::Optimized`]): per component, prefer the SMD part
//! whenever it consumes less area than the integrated realization (the
//! paper's rule that rescues the decoupling capacitors), fall back to the
//! only feasible option otherwise.
//!
//! # Examples
//!
//! ```
//! use ipass_core::{BomItem, BuildUp, PassivePolicy, Realization, SelectionObjective};
//! use ipass_units::{Area, Money};
//!
//! // A decoupling capacitor: small as an SMD, huge integrated.
//! let decap = BomItem::passive("decap 3.3 nF", 8)
//!     .with_smd(Realization::new(Area::from_mm2(4.5), Money::new(0.10)))
//!     .with_integrated(Realization::new(Area::from_mm2(33.0), Money::ZERO));
//! // A pull-up resistor: tiny integrated.
//! let pullup = BomItem::passive("pull-up 100 kΩ", 35)
//!     .with_smd(Realization::new(Area::from_mm2(3.75), Money::new(0.02)))
//!     .with_integrated(Realization::new(Area::from_mm2(0.25), Money::ZERO));
//!
//! let plan = BuildUp::mcm_flip_chip(PassivePolicy::Optimized)
//!     .plan(&[decap, pullup], SelectionObjective::MinArea)?;
//! // The optimizer keeps the decaps SMD and integrates the pull-ups:
//! assert_eq!(plan.smd_placements(), 8);
//! # Ok::<(), ipass_core::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bom;
mod flowbuild;
mod fom;
mod plan;
mod technology;

pub use bom::{BomItem, ItemRole, Realization};
pub use flowbuild::{ChipCost, CostInputs, YieldBasis};
pub use fom::{CandidateScore, DecisionError, DecisionRow, DecisionTable, FomWeights};
pub use plan::{AreaBreakdown, BuildUpPlan, Choice, PlanError, Selection, SelectionObjective};
pub use technology::{BuildUp, DieAttach, PassivePolicy, SubstrateTech};
