//! The top-level production flow: a line plus run-level economics.

use crate::analytic;
use crate::compile::RoutingProgram;
use crate::error::FlowError;
use crate::line::Line;
use crate::mc::{self, SimOptions, SimSummary};
use crate::report::CostReport;
use ipass_units::Money;
use std::sync::{Arc, OnceLock};

/// A production flow ready for evaluation: the [`Line`] plus NRE and the
/// production volume over which NRE is amortized.
///
/// # Examples
///
/// ```
/// use ipass_moe::{CostCategory, Flow, Line, Part, Process, StepCost, YieldModel};
/// use ipass_units::Money;
///
/// let line = Line::builder("demo", Part::new("pcb", CostCategory::Substrate)
///         .with_cost(StepCost::fixed(Money::new(2.0))))
///     .process(Process::new("assemble").with_cost(StepCost::fixed(Money::new(1.0))))
///     .build()?;
/// let flow = Flow::new(line)
///     .with_nre(Money::new(50_000.0))
///     .with_volume(100_000);
/// let report = flow.analyze()?;
/// // 3.0 direct + 0.5 NRE share:
/// assert!((report.final_cost_per_shipped().units() - 3.5).abs() < 1e-9);
/// # Ok::<(), ipass_moe::FlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Flow {
    line: Line,
    nre: Money,
    volume: u64,
    /// The line compiled into a flat routing program, built lazily on
    /// the first simulation and reused by every later `simulate*` call
    /// (clones share the compiled program through the `Arc`). Purely
    /// derived state: never part of equality.
    compiled: OnceLock<Arc<RoutingProgram>>,
}

impl PartialEq for Flow {
    fn eq(&self, other: &Flow) -> bool {
        self.line == other.line && self.nre == other.nre && self.volume == other.volume
    }
}

impl Flow {
    /// Wrap a line with default economics (no NRE, volume 1).
    pub fn new(line: Line) -> Flow {
        Flow {
            line,
            nre: Money::ZERO,
            volume: 1,
            compiled: OnceLock::new(),
        }
    }

    /// The line compiled into its routing program, validating and
    /// compiling on first use.
    fn program(&self) -> Result<&Arc<RoutingProgram>, FlowError> {
        if let Some(program) = self.compiled.get() {
            return Ok(program);
        }
        self.line.validate()?;
        Ok(self
            .compiled
            .get_or_init(|| Arc::new(RoutingProgram::compile(&self.line))))
    }

    /// Set the non-recurring engineering cost for the production run
    /// (masks, tooling, design).
    pub fn with_nre(mut self, nre: Money) -> Flow {
        self.nre = nre;
        self
    }

    /// Set the production volume over which NRE is amortized.
    pub fn with_volume(mut self, volume: u64) -> Flow {
        self.volume = volume.max(1);
        self
    }

    /// The flow's name (the top line's name).
    pub fn name(&self) -> &str {
        self.line.name()
    }

    /// The underlying production line.
    pub fn line(&self) -> &Line {
        &self.line
    }

    /// Configured NRE.
    pub fn nre(&self) -> Money {
        self.nre
    }

    /// Configured amortization volume.
    pub fn volume(&self) -> u64 {
        self.volume
    }

    /// Evaluate the flow with the closed-form expected-value engine.
    ///
    /// Runs on the same compiled routing program as the Monte Carlo
    /// kernel (cached on the flow), so repeated analytic evaluations
    /// pay compilation once.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] if the line is structurally invalid, ships
    /// nothing or its costs overflow.
    pub fn analyze(&self) -> Result<CostReport, FlowError> {
        analytic::analyze_program(self.program()?, self.nre, self.volume)
    }

    /// The flow's cached compiled program as a [`CompiledFlow`] handle —
    /// the entry point for patched scenario sweeps (see
    /// [`CompiledFlow::patch`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] if the line is structurally invalid.
    ///
    /// [`CompiledFlow`]: crate::CompiledFlow
    /// [`CompiledFlow::patch`]: crate::CompiledFlow::patch
    pub fn compiled(&self) -> Result<crate::patch::CompiledFlow, FlowError> {
        let compiled =
            crate::patch::CompiledFlow::new(self.program()?.clone(), self.nre, self.volume);
        // Debug builds statically verify every freshly compiled program:
        // a compiler bug that corrupts an invariant the engines trust
        // fails loudly here instead of skewing numbers downstream.
        #[cfg(debug_assertions)]
        {
            let diags = compiled.verify();
            debug_assert!(
                !diags.has_errors(),
                "compiled program for flow {:?} failed static verification:\n{diags}",
                self.name(),
            );
        }
        Ok(compiled)
    }

    /// Evaluate the flow by seeded Monte Carlo simulation.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] if the line is structurally invalid, no units
    /// are requested, nothing ships, a nested line starves its consumer,
    /// or the costs overflow when summed ([`FlowError::NonFiniteCost`]).
    pub fn simulate(&self, options: &SimOptions) -> Result<CostReport, FlowError> {
        self.simulate_summary(options).map(|s| s.report)
    }

    /// Like [`Flow::simulate`] but returns extra Monte Carlo statistics.
    ///
    /// # Errors
    ///
    /// See [`Flow::simulate`].
    pub fn simulate_summary(&self, options: &SimOptions) -> Result<SimSummary, FlowError> {
        mc::simulate_program(self.program()?, self.nre, self.volume, options, None)
    }

    /// Like [`Flow::simulate_summary`], but stop as soon as the
    /// shipped-fraction confidence interval satisfies `stop` (treating
    /// `options.units` as the budget). The stopping point is evaluated
    /// at deterministic chunk boundaries, so results are bit-identical
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// See [`Flow::simulate`].
    pub fn simulate_adaptive(
        &self,
        options: &SimOptions,
        stop: ipass_sim::StopRule,
    ) -> Result<SimSummary, FlowError> {
        mc::simulate_program(self.program()?, self.nre, self.volume, options, Some(stop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostCategory, StepCost};
    use crate::part::Part;
    use crate::stage::{Process, Test};
    use crate::yield_model::YieldModel;
    use ipass_units::Probability;

    fn flow() -> Flow {
        let line = Line::builder(
            "f",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(1.0))),
        )
        .process(
            Process::new("p")
                .with_cost(StepCost::fixed(Money::new(2.0)))
                .with_yield(YieldModel::percent(95.0)),
        )
        .test(
            Test::new("t")
                .with_cost(StepCost::fixed(Money::new(0.5)))
                .with_coverage(Probability::new(0.99).unwrap()),
        )
        .build()
        .unwrap();
        Flow::new(line)
    }

    #[test]
    fn accessors() {
        let f = flow().with_nre(Money::new(10.0)).with_volume(100);
        assert_eq!(f.name(), "f");
        assert_eq!(f.nre(), Money::new(10.0));
        assert_eq!(f.volume(), 100);
        assert_eq!(f.line().stages().len(), 2);
    }

    #[test]
    fn volume_is_at_least_one() {
        assert_eq!(flow().with_volume(0).volume(), 1);
    }

    #[test]
    fn engines_agree() {
        let f = flow();
        let a = f.analyze().unwrap();
        let m = f.simulate(&SimOptions::new(200_000).with_seed(11)).unwrap();
        assert!((a.shipped_fraction() - m.shipped_fraction()).abs() < 0.005);
        let rel = m.final_cost_per_shipped() / a.final_cost_per_shipped();
        assert!((rel - 1.0).abs() < 0.01);
    }

    #[test]
    fn threads_partition_all_units() {
        let f = flow();
        let s = f
            .simulate_summary(&SimOptions::new(10_001).with_seed(1).with_threads(4))
            .unwrap();
        let report = &s.report;
        assert_eq!(report.started(), 10_001.0);
        assert!((report.shipped() + s.scrapped - 10_001.0).abs() < 1e-9);
    }

    #[test]
    fn both_engines_refuse_costs_that_overflow_when_summed() {
        // The carrier and the process each book 1e308, valid on its own;
        // per unit they sum past f64::MAX. The Monte Carlo report must
        // refuse it as the analytic one does, not panic when read.
        let line = Line::builder(
            "f",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(1e308))),
        )
        .process(
            Process::new("p")
                .with_cost(StepCost::fixed(Money::new(1e308)))
                .with_yield(YieldModel::percent(95.0)),
        )
        .build()
        .unwrap();
        let f = Flow::new(line);
        let overflow = FlowError::NonFiniteCost { flow: "f".into() };
        assert_eq!(f.analyze().unwrap_err(), overflow);
        assert_eq!(f.simulate(&SimOptions::new(100)).unwrap_err(), overflow);
    }

    #[test]
    fn nre_amortization_shrinks_with_volume() {
        let small = flow().with_nre(Money::new(1000.0)).with_volume(100);
        let large = flow().with_nre(Money::new(1000.0)).with_volume(100_000);
        let c_small = small.analyze().unwrap().final_cost_per_shipped();
        let c_large = large.analyze().unwrap().final_cost_per_shipped();
        assert!(c_small > c_large);
    }
}
