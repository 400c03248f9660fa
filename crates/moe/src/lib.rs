//! MOE — the **M**odular **O**ptimization **E**nvironment.
//!
//! A reimplementation of the production-flow cost modeling tool used in
//! *Assessing the Cost Effectiveness of Integrated Passives* (Scheffler &
//! Tröster, DATE 2000) and described in Scheffler et al., *Modeling and
//! Optimizing the Cost of Electronic Systems*, IEEE Design & Test 15(3),
//! 1998.
//!
//! A manufacturing flow is modeled as a production [`Line`]: a carrier
//! (PCB, MCM substrate) enters the line and passes process, attach
//! (assembly) and test stages. Attach stages consume [`Part`]s — which may
//! themselves be produced by nested lines — and every stage can add cost
//! and introduce defects according to a [`YieldModel`]. Test stages detect
//! defective units with a finite fault coverage and route failures to
//! scrap or to a bounded rework loop.
//!
//! Two evaluation engines are provided and agree with each other:
//!
//! * [`Flow::analyze`] — closed-form expected-value propagation (exact,
//!   including bounded rework loops), and
//! * [`Flow::simulate`] — seeded Monte Carlo unit routing, the approach
//!   the paper describes ("yield figures are translated into faults using
//!   Monte Carlo simulation").
//!
//! Both produce a [`CostReport`] implementing the paper's Eq. 1:
//!
//! ```text
//! final cost per shipped unit =
//!     (Σ direct cost + Σ scrap cost + Σ NRE) / #shipped units
//! ```
//!
//! # Examples
//!
//! ```
//! use ipass_moe::{
//!     CostCategory, FailAction, Flow, Line, Part, Process, StepCost, Test, YieldModel,
//! };
//! use ipass_units::{Money, Probability};
//!
//! // A toy two-step line: a board, one soldering process, one test.
//! let board = Part::new("board", CostCategory::Substrate)
//!     .with_cost(StepCost::fixed(Money::new(5.0)))
//!     .with_incoming_yield(YieldModel::flat(Probability::new(0.99)?));
//! let line = Line::builder("toy", board)
//!     .process(
//!         Process::new("solder")
//!             .with_cost(StepCost::fixed(Money::new(1.0)))
//!             .with_yield(YieldModel::flat(Probability::new(0.95)?)),
//!     )
//!     .test(
//!         Test::new("final test")
//!             .with_cost(StepCost::fixed(Money::new(2.0)))
//!             .with_coverage(Probability::new(0.99)?)
//!             .on_fail(FailAction::Scrap),
//!     )
//!     .build()?;
//! let report = Flow::new(line).analyze()?;
//! assert!(report.shipped_fraction() > 0.9);
//! assert!(report.final_cost_per_shipped().units() > 8.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// explicitly-vectorized lane kernel (`lane::simd`), which needs
// `core::arch` intrinsics and carries its own `allow` + safety docs.
// Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analytic;
mod compile;
mod cost;
mod crossover;
mod diagnostics;
mod dual;
mod error;
mod flow;
mod labels;
mod lane;
mod line;
mod mc;
mod part;
mod patch;
mod report;
mod sensitivity;
mod stage;
mod verify;
mod yield_model;

#[doc(hidden)]
pub use analytic::analyze_line_reference;
pub use compile::SlotKind;
pub use cost::{CostCategory, CostVector, StepCost};
pub use crossover::{find_crossover, CrossoverError};
pub use diagnostics::{Diagnostic, Diagnostics, Severity};
pub use dual::{DualDirection, DualReport, Gradient};
pub use error::FlowError;
pub use flow::Flow;
pub use ipass_obs::{Probe, Profiler, RunStats};
pub use ipass_sim::{Executor, StopRule};
pub use lane::effective_lane_width;
pub use line::{Line, LineBuilder};
#[doc(hidden)]
pub use mc::simulate_line_reference;
pub use mc::{SimOptions, SimSummary, DEFAULT_LANE_WIDTH, DEFAULT_SUBASSEMBLY_RETRY_BUDGET};
pub use part::{AttachInput, Part};
pub use patch::{CompiledFlow, FlowPatch, PatchDirective};
pub use report::{CostBreakdownRow, CostFigures, CostReport};
pub use sensitivity::{Tornado, TornadoDirection, TornadoRow};
pub use stage::{Attach, FailAction, Process, Rework, Stage, Test};
pub use verify::{CountInterval, Interval, StaticBounds};
pub use yield_model::{DefectModel, YieldModel};
