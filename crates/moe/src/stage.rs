//! Stages of a production line: process, attach, test (with rework).

use crate::cost::{CostCategory, StepCost};
use crate::part::AttachInput;
use crate::yield_model::YieldModel;
use ipass_units::Probability;

/// A value-adding process step (screen printing, rerouting, packaging…).
///
/// # Examples
///
/// ```
/// use ipass_moe::{CostCategory, Process, StepCost, YieldModel};
/// use ipass_units::Money;
///
/// let pkg = Process::new("BGA packaging")
///     .with_cost(StepCost::fixed(Money::new(7.30)))
///     .with_yield(YieldModel::percent(96.8))
///     .with_category(CostCategory::Packaging);
/// assert_eq!(pkg.name(), "BGA packaging");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    name: String,
    cost: StepCost,
    yield_: YieldModel,
    category: CostCategory,
}

impl Process {
    /// Create a free, defect-free process; chain `with_*` to configure.
    pub fn new(name: impl Into<String>) -> Process {
        Process {
            name: name.into(),
            cost: StepCost::ZERO,
            yield_: YieldModel::Certain,
            category: CostCategory::Assembly,
        }
    }

    /// Set the cost per unit processed.
    pub fn with_cost(mut self, cost: StepCost) -> Process {
        self.cost = cost;
        self
    }

    /// Set the process yield.
    pub fn with_yield(mut self, y: YieldModel) -> Process {
        self.yield_ = y;
        self
    }

    /// Set the accounting category (default: `Assembly`).
    pub fn with_category(mut self, category: CostCategory) -> Process {
        self.category = category;
        self
    }

    /// The stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cost per unit processed.
    pub fn cost(&self) -> &StepCost {
        &self.cost
    }

    /// The process yield model.
    pub fn process_yield(&self) -> &YieldModel {
        &self.yield_
    }

    /// The accounting category.
    pub fn category(&self) -> CostCategory {
        self.category
    }
}

/// An assembly step attaching parts (or subassembly outputs) to the unit.
///
/// # Examples
///
/// ```
/// use ipass_moe::{Attach, CostCategory, Part, StepCost, YieldModel};
/// use ipass_units::{Money, Probability};
///
/// let rf = Part::new("RF die", CostCategory::Chip)
///     .with_cost(StepCost::fixed(Money::new(79.3)));
/// let dsp = Part::new("DSP die", CostCategory::Chip)
///     .with_cost(StepCost::fixed(Money::new(118.9)));
/// let attach = Attach::new("dice bonding")
///     .input(rf, 1)
///     .input(dsp, 1)
///     .with_cost(StepCost::per_item(Money::new(0.10), 2))
///     .with_yield(YieldModel::percent(99.0));
/// assert_eq!(attach.inputs().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Attach {
    name: String,
    inputs: Vec<(AttachInput, u32)>,
    cost: StepCost,
    yield_: YieldModel,
}

impl Attach {
    /// Create an attach stage with no inputs yet.
    pub fn new(name: impl Into<String>) -> Attach {
        Attach {
            name: name.into(),
            inputs: Vec::new(),
            cost: StepCost::ZERO,
            yield_: YieldModel::Certain,
        }
    }

    /// Add `quantity` instances of an input (part or nested line).
    pub fn input(mut self, input: impl Into<AttachInput>, quantity: u32) -> Attach {
        self.inputs.push((input.into(), quantity));
        self
    }

    /// Set the assembly operation cost (booked under
    /// [`CostCategory::Assembly`], not the parts' categories).
    pub fn with_cost(mut self, cost: StepCost) -> Attach {
        self.cost = cost;
        self
    }

    /// Set the assembly yield (the operation itself; incoming part
    /// quality is carried by each part's incoming yield).
    pub fn with_yield(mut self, y: YieldModel) -> Attach {
        self.yield_ = y;
        self
    }

    /// The stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attached inputs with quantities.
    pub fn inputs(&self) -> &[(AttachInput, u32)] {
        &self.inputs
    }

    /// The assembly operation cost.
    pub fn cost(&self) -> &StepCost {
        &self.cost
    }

    /// The assembly yield model.
    pub fn attach_yield(&self) -> &YieldModel {
        &self.yield_
    }

    /// The accounting category of the operation cost: always
    /// [`CostCategory::Assembly`].
    pub fn category(&self) -> CostCategory {
        CostCategory::Assembly
    }
}

/// A bounded rework loop behind a failed test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rework {
    /// Cost of one rework attempt.
    pub cost: StepCost,
    /// Probability that the attempt actually repairs the unit.
    pub success: Probability,
    /// Maximum rework attempts before the unit is scrapped.
    pub max_attempts: u32,
}

impl Rework {
    /// Create a rework policy.
    pub fn new(cost: StepCost, success: Probability, max_attempts: u32) -> Rework {
        Rework {
            cost,
            success,
            max_attempts,
        }
    }
}

/// What happens to units failing a test.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailAction {
    /// Scrap the unit; its accumulated cost is booked as yield loss.
    #[default]
    Scrap,
    /// Attempt repair, then re-test; scrapped after `max_attempts`.
    Rework(Rework),
}

/// A test stage with finite fault coverage.
///
/// Defective units are detected with probability `coverage`; undetected
/// defectives ("escapes") continue down the line and may ship.
///
/// # Examples
///
/// ```
/// use ipass_moe::{FailAction, StepCost, Test};
/// use ipass_units::{Money, Probability};
///
/// let t = Test::new("functional test")
///     .with_cost(StepCost::fixed(Money::new(10.0)))
///     .with_coverage(Probability::new(0.99)?)
///     .on_fail(FailAction::Scrap);
/// assert_eq!(t.coverage().percent(), 99.0);
/// # Ok::<(), ipass_units::ProbabilityError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Test {
    name: String,
    cost: StepCost,
    coverage: Probability,
    on_fail: FailAction,
}

impl Test {
    /// Create a free test with perfect coverage that scraps failures.
    pub fn new(name: impl Into<String>) -> Test {
        Test {
            name: name.into(),
            cost: StepCost::ZERO,
            coverage: Probability::ONE,
            on_fail: FailAction::Scrap,
        }
    }

    /// Set the cost per unit tested (paid again on re-test after rework).
    pub fn with_cost(mut self, cost: StepCost) -> Test {
        self.cost = cost;
        self
    }

    /// Set the fault coverage.
    pub fn with_coverage(mut self, coverage: Probability) -> Test {
        self.coverage = coverage;
        self
    }

    /// Set the fail routing.
    pub fn on_fail(mut self, action: FailAction) -> Test {
        self.on_fail = action;
        self
    }

    /// The stage name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The test cost.
    pub fn cost(&self) -> &StepCost {
        &self.cost
    }

    /// The fault coverage.
    pub fn coverage(&self) -> Probability {
        self.coverage
    }

    /// The fail routing.
    pub fn fail_action(&self) -> &FailAction {
        &self.on_fail
    }
}

/// A stage in a production [`Line`](crate::Line).
#[derive(Debug, Clone, PartialEq)]
pub enum Stage {
    /// Value-adding process.
    Process(Process),
    /// Assembly of parts or subassemblies.
    Attach(Attach),
    /// Inspection with finite fault coverage.
    Test(Test),
}

impl Stage {
    /// The stage's display name.
    pub fn name(&self) -> &str {
        match self {
            Stage::Process(p) => p.name(),
            Stage::Attach(a) => a.name(),
            Stage::Test(t) => t.name(),
        }
    }
}

impl From<Process> for Stage {
    fn from(p: Process) -> Stage {
        Stage::Process(p)
    }
}

impl From<Attach> for Stage {
    fn from(a: Attach) -> Stage {
        Stage::Attach(a)
    }
}

impl From<Test> for Stage {
    fn from(t: Test) -> Stage {
        Stage::Test(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::Part;
    use ipass_units::Money;

    #[test]
    fn process_builder() {
        let p = Process::new("reroute")
            .with_cost(StepCost::fixed(Money::new(1.0)))
            .with_yield(YieldModel::percent(99.0))
            .with_category(CostCategory::Substrate);
        assert_eq!(p.name(), "reroute");
        assert_eq!(p.cost().total(), Money::new(1.0));
        assert_eq!(p.category(), CostCategory::Substrate);
        assert!((p.process_yield().value().value() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn attach_accumulates_inputs() {
        let a = Attach::new("smd mount")
            .input(Part::new("kit", CostCategory::PassiveParts), 112)
            .with_cost(StepCost::per_item(Money::new(0.01), 112));
        assert_eq!(a.inputs().len(), 1);
        assert_eq!(a.inputs()[0].1, 112);
        assert_eq!(a.cost().total(), Money::new(1.12));
    }

    #[test]
    fn test_defaults_are_safe() {
        let t = Test::new("t");
        assert!(t.coverage().is_certain());
        assert_eq!(*t.fail_action(), FailAction::Scrap);
    }

    #[test]
    fn stage_names() {
        assert_eq!(Stage::from(Process::new("p")).name(), "p");
        assert_eq!(Stage::from(Attach::new("a")).name(), "a");
        assert_eq!(Stage::from(Test::new("t")).name(), "t");
    }

    #[test]
    fn rework_policy() {
        let r = Rework::new(
            StepCost::fixed(Money::new(3.0)),
            Probability::new(0.6).unwrap(),
            2,
        );
        assert_eq!(r.max_attempts, 2);
        let action = FailAction::Rework(r);
        assert_ne!(action, FailAction::Scrap);
        assert_eq!(FailAction::default(), FailAction::Scrap);
    }
}
