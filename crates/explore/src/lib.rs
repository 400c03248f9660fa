//! `ipass-explore` — deterministic design-space exploration.
//!
//! The paper's methodology compares integration technologies across
//! whole *families* of scenarios — volumes, yields, cost assumptions.
//! This crate treats the scenario family itself as the object of study:
//!
//! * **Axes** ([`Axis`], [`Levels`]) name the dimensions; the
//!   production-flow binding ([`FlowAxis`]) lowers each value onto a
//!   patch slot of a [`CompiledFlow`](ipass_moe::CompiledFlow) (or the
//!   amortization volume, or a custom coupled patch).
//! * **The sampler** ([`SamplerSpec::Grid`]) addresses the full grid's
//!   points by index, so coordinates are a pure function of
//!   `(axes, index)` and every fan-out is bit-identical for any
//!   executor thread count.
//! * **Pareto frontiers** ([`ParetoFrontier`], [`Sense`]) rank points
//!   under multiple objectives; [`ParetoFrontier::diff`] compares
//!   candidates ("which of A's trade-off points does B beat?").
//! * **Adaptive refinement** ([`FlowExplorer::refine`]) screens every
//!   point with the closed-form analytic engine (~hundreds of
//!   nanoseconds per point), prunes everything a clear margin inside
//!   the dominated region, and promotes only the frontier-adjacent
//!   band to seeded Monte Carlo confirmation with CI-based early
//!   stopping.
//!
//! [`FlowExplorer`] owns the whole pipeline: sampling, the executor
//! fan-out of one patched cohort walk per point, the NaN check on its
//! objectives, and frontier extraction.
//!
//! # Examples
//!
//! ```
//! use ipass_explore::{FlowAxis, FlowExplorer, Levels, Metric, Objective, SamplerSpec};
//! use ipass_moe::{CostCategory, Flow, Line, Part, Process, StepCost, Test, YieldModel};
//! use ipass_units::{Money, Probability};
//!
//! let line = Line::builder("module", Part::new("substrate", CostCategory::Substrate)
//!         .with_cost(StepCost::fixed(Money::new(4.0))))
//!     .process(Process::new("assembly")
//!         .with_cost(StepCost::fixed(Money::new(1.5)))
//!         .with_yield(YieldModel::percent(93.0)))
//!     .test(Test::new("final test")
//!         .with_cost(StepCost::fixed(Money::new(1.0)))
//!         .with_coverage(Probability::new(0.97)?))
//!     .build()?;
//!
//! // How do substrate price and test coverage trade cost against
//! // escapes? One compiled program, 1 024 patched cohort walks, one
//! // frontier.
//! let exploration = FlowExplorer::new(Flow::new(line).compiled()?)
//!     .axis(FlowAxis::cost_scale("substrate", Levels::linspace(0.6, 1.4, 32)))
//!     .axis(FlowAxis::coverage("final test", Levels::linspace(0.9, 0.999, 32)))
//!     .objective(Objective::minimize(Metric::FinalCostPerShipped))
//!     .objective(Objective::minimize(Metric::EscapeRate))
//!     .explore(&SamplerSpec::Grid)?;
//! assert_eq!(exploration.points.len(), 1024);
//! assert!(!exploration.frontier.members().is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod error;
mod flow;
mod pareto;
mod sample;
mod space;

pub use engine::Exploration;
pub use error::ExploreError;
pub use flow::{
    Confirmation, FlowAxis, FlowExplorer, FlowTarget, Metric, Objective, RefineOptions, Refined,
};
pub use pareto::{dominates, DesignPoint, FrontierDiff, ParetoFrontier, Sense};
pub use sample::SamplerSpec;
pub use space::{Axis, Levels};
