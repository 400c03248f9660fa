//! Parameter patching on compiled routing programs.
//!
//! Scenario grids (sweeps, tornado charts, design-space screens)
//! evaluate the *same* production line hundreds of times with a
//! handful of numbers changed per point. Rebuilding the [`Line`]
//! object graph per point pays validation, label indexing and
//! compilation every time just to move one float. A compiled
//! [`RoutingProgram`] instead exposes a small set of *patch slots* —
//! step costs, yield probabilities, test coverages, each named by its
//! defect-label path — and a [`FlowPatch`] overwrites them directly in
//! a copy of the flat op vector: one `memcpy` plus a few field writes
//! per scenario point, then a cohort walk.
//!
//! Patched programs are evaluated **analytically only**. The Monte
//! Carlo kernel's draw-stream contract is defined by compiling a
//! [`Line`] (degenerate probabilities specialize into draw-free ops at
//! compile time); overwriting a probability after the fact could
//! change which ops *should* draw and silently break seeded
//! reproducibility. To Monte-Carlo a modified model, rebuild the line.
//!
//! # Examples
//!
//! ```
//! use ipass_moe::{CostCategory, Flow, Line, Part, Process, StepCost, YieldModel};
//! use ipass_units::{Money, Probability};
//!
//! let line = Line::builder("demo", Part::new("pcb", CostCategory::Substrate)
//!         .with_cost(StepCost::fixed(Money::new(2.0))))
//!     .process(Process::new("assemble")
//!         .with_cost(StepCost::fixed(Money::new(1.0)))
//!         .with_yield(YieldModel::percent(95.0)))
//!     .build()?;
//! let flow = Flow::new(line);
//! let compiled = flow.compiled()?;
//! let mut patch = compiled.patch();
//! patch.set_cost("pcb", Money::new(3.0))?;
//! patch.set_yield("assemble", Probability::new(0.90).unwrap())?;
//! let report = patch.analyze()?;
//! assert!(report.final_cost_per_shipped() > flow.analyze()?.final_cost_per_shipped());
//! # Ok::<(), ipass_moe::FlowError>(())
//! ```
//!
//! [`Line`]: crate::Line

use crate::analytic::{self, FoldedDirections, FoldedSeed};
use crate::compile::{Op, RoutingProgram, SlotKind};
use crate::diagnostics::{Diagnostics, Severity};
use crate::dual::{DualDirection, DualReport};
use crate::error::FlowError;
use crate::mc::{self, SimOptions, SimSummary};
use crate::report::{CostFigures, CostReport};
use crate::verify::{self, StaticBounds, VerifyMode};
use ipass_sim::SimRng;
use ipass_units::{Money, Probability};
use std::sync::Arc;

/// A [`Flow`](crate::Flow)'s compiled routing program plus its run
/// economics: the shareable, immutable base that [`FlowPatch`]es and
/// cached evaluations hang off. Obtained from
/// [`Flow::compiled`](crate::Flow::compiled); clones share the program.
#[derive(Debug, Clone)]
pub struct CompiledFlow {
    program: Arc<RoutingProgram>,
    nre: Money,
    volume: u64,
}

impl CompiledFlow {
    pub(crate) fn new(program: Arc<RoutingProgram>, nre: Money, volume: u64) -> CompiledFlow {
        CompiledFlow {
            program,
            nre,
            volume,
        }
    }

    /// Test-only access to the compiled op vector (the verifier's unit
    /// tests corrupt copies of real programs to exercise diagnostics).
    #[cfg(test)]
    pub(crate) fn program(&self) -> &RoutingProgram {
        &self.program
    }

    /// The flow's name (the top line's name).
    pub fn name(&self) -> &str {
        self.program.line_name()
    }

    /// Statically verify the compiled program against the invariant
    /// catalog every engine trusts and lint it for probable modeling
    /// mistakes — DESIGN.md's verifier section has the full catalog.
    /// Runs
    /// automatically (as a debug assertion) when a flow is compiled
    /// under `debug_assertions`.
    pub fn verify(&self) -> Diagnostics {
        verify::verify_program(
            &self.program,
            self.program.ops(),
            VerifyMode::Compiled,
            mc::DEFAULT_SUBASSEMBLY_RETRY_BUDGET,
        )
    }

    /// Statically verified per-started-unit bounds — RNG draws, booked
    /// cost, shipped-fraction support, rework attempts, sub-unit builds
    /// — valid for *every* draw outcome at the given
    /// `subassembly_retry_budget` (the bound the Monte Carlo engine
    /// enforces; the analytic engine's untruncated retry model stays
    /// inside the cost bound whenever each sub-line's expected attempt
    /// count does).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::ZeroRetryBudget`] for a zero budget and
    /// [`FlowError::VerificationFailed`] when structural verification
    /// finds errors (the interval walk trusts region soundness).
    pub fn static_bounds(&self, retry_budget: u32) -> Result<StaticBounds, FlowError> {
        if retry_budget == 0 {
            return Err(FlowError::ZeroRetryBudget);
        }
        let diags =
            verify::structural_errors(&self.program, self.program.ops(), VerifyMode::Compiled);
        if diags.has_errors() {
            return Err(verification_failed(&diags));
        }
        let (entry, len) = self.program.top_region();
        Ok(verify::static_bounds(
            self.program.ops(),
            entry,
            len,
            retry_budget,
        ))
    }

    /// The patchable parameters: `(slot name, kind)` pairs, in program
    /// order. Slot names follow the defect-label path convention
    /// (`"wire bonding"`, `"chip assembly/RF chip"`,
    /// `"subassembly/fab"`).
    pub fn slots(&self) -> impl Iterator<Item = (&str, SlotKind)> + '_ {
        self.program
            .slots()
            .iter()
            .map(|s| (s.name.as_str(), s.kind))
    }

    /// Evaluate the unpatched program with the analytic engine
    /// (identical to [`Flow::analyze`](crate::Flow::analyze)).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NothingShipped`] when the flow ships
    /// nothing and [`FlowError::NonFiniteCost`] when its costs overflow.
    pub fn analyze(&self) -> Result<CostReport, FlowError> {
        analytic::analyze_program(&self.program, self.nre, self.volume)
    }

    /// Evaluate the unpatched program by seeded Monte Carlo: the report
    /// [`Flow::simulate`](crate::Flow::simulate) returns, plus the extra
    /// Monte Carlo statistics.
    ///
    /// # Errors
    ///
    /// See [`Flow::simulate`](crate::Flow::simulate).
    pub fn simulate_summary(&self, options: &SimOptions) -> Result<SimSummary, FlowError> {
        mc::simulate_program(&self.program, self.nre, self.volume, options, None)
    }

    /// Like [`CompiledFlow::simulate_summary`], recording wall-clock
    /// spans (one `"chunk"` per executor chunk) into `profiler`.
    /// Profiling is strictly the wall-clock plane: the returned summary
    /// — probe stats included — is bit-identical to the unprofiled run.
    ///
    /// # Errors
    ///
    /// See [`Flow::simulate`](crate::Flow::simulate).
    pub fn simulate_summary_profiled(
        &self,
        options: &SimOptions,
        profiler: &ipass_obs::Profiler,
    ) -> Result<SimSummary, FlowError> {
        mc::simulate_program_profiled(
            &self.program,
            self.nre,
            self.volume,
            options,
            None,
            Some(profiler),
        )
    }

    /// Evaluate the program **once** with forward-mode duals and
    /// return the primal report (bit-identical to
    /// [`CompiledFlow::analyze`]) plus one exact [`Gradient`] per
    /// requested direction — where a tornado or sweep pays `1 + 2·n`
    /// full walks for n parameters, this pays one walk carrying n
    /// tangent lanes (chunked above 16 directions).
    ///
    /// Each [`DualDirection`] is a weighted combination of patch slots
    /// with the per-input-unit semantics of the [`FlowPatch`] setters;
    /// the derivative of the final cost per shipped unit is *exact*
    /// (the analytic engine is closed-form, and final cost is affine in
    /// every cost slot, so cost-direction extrapolations are exact too,
    /// not just first-order).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownPatchSlot`] /
    /// [`FlowError::AmbiguousPatchSlot`] for unresolvable direction
    /// components, [`FlowError::NothingShipped`] when the flow ships
    /// nothing and [`FlowError::NonFiniteCost`] when its costs overflow.
    ///
    /// [`Gradient`]: crate::Gradient
    pub fn analyze_duals<'d>(
        &self,
        directions: impl IntoIterator<Item = &'d DualDirection>,
    ) -> Result<DualReport, FlowError> {
        let folded = fold_directions(&self.program, directions)?;
        let (entry, len) = self.program.top_region();
        analytic::analyze_ops_duals(
            self.program.ops(),
            entry,
            len,
            self.program.names(),
            self.program.line_name(),
            self.nre,
            self.volume,
            &folded,
        )
    }

    /// The current per-input-unit cost of a cost slot (the op's folded
    /// cost divided by its quantity) — the weight a [`DualDirection`]
    /// component needs to express "scale this slot's cost", since
    /// ∂cost/∂(scale factor) = the slot's current folded cost.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownPatchSlot`] /
    /// [`FlowError::AmbiguousPatchSlot`] like the patch setters.
    pub fn slot_unit_cost(&self, slot: &str) -> Result<Money, FlowError> {
        let (op, qty) = self.program.resolve_slot(slot, SlotKind::Cost)?;
        let folded = match self.program.ops()[op as usize] {
            Op::Cost { cost, .. }
            | Op::Condemn { cost, .. }
            | Op::Step { cost, .. }
            | Op::TestScrap { cost, .. }
            | Op::TestRework { cost, .. } => cost,
            Op::SubLine { .. } => unreachable!("cost slot registered on a sub-line op"),
        };
        Ok(Money::new(folded / qty as f64))
    }

    /// Start a patch: a private copy of the op vector with every slot
    /// still at its compiled value. Creating one per scenario point is
    /// the intended pattern — it is a single `Vec` clone.
    pub fn patch(&self) -> FlowPatch {
        FlowPatch {
            program: Arc::clone(&self.program),
            ops: self.program.ops().to_vec(),
            nre: self.nre,
            volume: self.volume,
            writes: 0,
        }
    }
}

/// The [`FlowError::VerificationFailed`] for a diagnostics report that
/// `has_errors()`.
fn verification_failed(diags: &Diagnostics) -> FlowError {
    let first = diags
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("caller checked has_errors")
        .to_string();
    FlowError::VerificationFailed {
        flow: diags.flow().to_owned(),
        errors: diags.count(Severity::Error),
        first,
    }
}

/// A declarative patch step — the serializable/comparable form of the
/// [`FlowPatch`] setters, so scenario definitions can carry patches as
/// plain data (and deduplicate equal ones).
#[derive(Debug, Clone, PartialEq)]
pub enum PatchDirective {
    /// Set a [`SlotKind::Cost`] slot to a per-input-unit cost.
    SetCost {
        /// Slot name.
        slot: String,
        /// New cost per input unit (the op books `quantity ×` this).
        unit_cost: Money,
    },
    /// Multiply a [`SlotKind::Cost`] slot's current cost by a factor.
    ScaleCost {
        /// Slot name.
        slot: String,
        /// Multiplier applied to the op's current cost.
        factor: f64,
    },
    /// Set a [`SlotKind::Yield`] slot to a per-input-unit probability.
    SetYield {
        /// Slot name.
        slot: String,
        /// New per-input-unit success probability (the op folds in
        /// `p^quantity`).
        p: Probability,
    },
    /// Set a [`SlotKind::Coverage`] slot (test fault coverage).
    SetCoverage {
        /// Slot name.
        slot: String,
        /// New fault coverage.
        p: Probability,
    },
}

/// A mutable copy of a compiled program's op vector with named
/// parameter slots overwritten — see the crate docs for the sweep
/// pattern and the analytic-only caveat. Starting one is a `memcpy` of
/// the op vector; each setter then resolves its slot, writes the op
/// field and counts the write, without allocating.
#[derive(Debug, Clone)]
pub struct FlowPatch {
    /// The base program: slot table, label names, region layout.
    program: Arc<RoutingProgram>,
    /// The private op copy the setters write into.
    ops: Vec<Op>,
    nre: Money,
    volume: u64,
    /// Slot writes so far, duplicates included.
    writes: u64,
}

impl FlowPatch {
    /// The cost field of the op a [`SlotKind::Cost`] slot points at.
    fn cost_of(&mut self, op: u32) -> &mut f64 {
        match &mut self.ops[op as usize] {
            Op::Cost { cost, .. }
            | Op::Condemn { cost, .. }
            | Op::Step { cost, .. }
            | Op::TestScrap { cost, .. }
            | Op::TestRework { cost, .. } => cost,
            Op::SubLine { .. } => unreachable!("cost slot registered on a sub-line op"),
        }
    }

    /// Resolve `(name, kind)` to its unique op and count the write.
    /// Zero matches and multiple matches (duplicate stage/part names are
    /// legal in a line) are both errors — silently patching the first
    /// duplicate would diverge from rebuilding the line. A slot written
    /// twice keeps its last value.
    fn resolve(&mut self, name: &str, kind: SlotKind) -> Result<(u32, u32), FlowError> {
        let resolved = self.program.resolve_slot(name, kind)?;
        self.writes += 1;
        Ok(resolved)
    }

    /// Number of slot writes applied so far (every slot-setter or
    /// [`FlowPatch::apply`] call that resolved its slot, duplicates
    /// included) — the deterministic patch-application counter the
    /// observability plane aggregates into `RunStats::patch_writes`.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Verify and lint the *patched* op vector: the structural checks
    /// and lints of [`CompiledFlow::verify`] in patched mode (degenerate
    /// probabilities under the `set_yield` threshold convention are
    /// info-grade, not errors).
    pub fn lint(&self) -> Diagnostics {
        verify::verify_program(
            &self.program,
            &self.ops,
            VerifyMode::Patched,
            mc::DEFAULT_SUBASSEMBLY_RETRY_BUDGET,
        )
    }

    /// Write `cost(current, quantity)` into a cost slot and count the
    /// write, unless the verifier would reject the result: a refused
    /// write leaves the op and [`FlowPatch::writes`] unchanged.
    fn write_cost(
        &mut self,
        slot: &str,
        cost: impl FnOnce(f64, u32) -> f64,
    ) -> Result<&mut FlowPatch, FlowError> {
        let (op, qty) = self.program.resolve_slot(slot, SlotKind::Cost)?;
        let field = self.cost_of(op);
        let value = cost(*field, qty);
        if verify::cost_defect(value).is_some() {
            return Err(FlowError::InvalidPatchCost {
                slot: slot.to_owned(),
                value,
            });
        }
        *field = value;
        self.writes += 1;
        Ok(self)
    }

    /// Set a cost slot to `unit_cost` per input unit (the op books
    /// `quantity × unit_cost`; quantity is 1 for everything but
    /// multi-part attach inputs).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownPatchSlot`] when the program has no
    /// cost slot of that name (e.g. the step compiled away as a free,
    /// certain no-op), and [`FlowError::InvalidPatchCost`] when the
    /// booked amount would be non-finite or negative.
    pub fn set_cost(&mut self, slot: &str, unit_cost: Money) -> Result<&mut FlowPatch, FlowError> {
        self.write_cost(slot, |_, qty| qty as f64 * unit_cost.units())
    }

    /// Multiply a cost slot's current value by `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownPatchSlot`] when the program has no
    /// cost slot of that name, and [`FlowError::InvalidPatchCost`] when
    /// the scaled amount would be non-finite or negative.
    pub fn scale_cost(&mut self, slot: &str, factor: f64) -> Result<&mut FlowPatch, FlowError> {
        self.write_cost(slot, |cost, _| cost * factor)
    }

    /// Set a yield slot to `p` per input unit (the op folds in
    /// `p^quantity`).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownPatchSlot`] when the program has no
    /// yield slot of that name — in particular when the step's compiled
    /// yield was degenerate (certain or zero), which specialized the op
    /// into a draw-free form with no live probability to overwrite.
    pub fn set_yield(&mut self, slot: &str, p: Probability) -> Result<&mut FlowPatch, FlowError> {
        let (op, qty) = self.resolve(slot, SlotKind::Yield)?;
        let folded = if qty > 1 {
            p.value().powf(qty as f64)
        } else {
            p.value()
        };
        let Op::Step {
            p_good, threshold, ..
        } = &mut self.ops[op as usize]
        else {
            unreachable!("yield slot registered on a non-step op");
        };
        *p_good = folded;
        // Kept structurally valid for the analytic walker; patched
        // programs are never handed to the Monte Carlo kernel (see the
        // module docs), so a degenerate patched probability needs no
        // op-kind re-specialization.
        *threshold = if folded > 0.0 && folded < 1.0 {
            SimRng::threshold(folded)
        } else if folded >= 1.0 {
            u64::MAX
        } else {
            0
        };
        Ok(self)
    }

    /// Set a test stage's fault coverage.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownPatchSlot`] when the program has no
    /// test stage of that name.
    pub fn set_coverage(
        &mut self,
        slot: &str,
        p: Probability,
    ) -> Result<&mut FlowPatch, FlowError> {
        let (op, _) = self.resolve(slot, SlotKind::Coverage)?;
        match &mut self.ops[op as usize] {
            Op::TestScrap { coverage, .. } | Op::TestRework { coverage, .. } => {
                *coverage = p.value();
            }
            _ => unreachable!("coverage slot registered on a non-test op"),
        }
        Ok(self)
    }

    /// Apply one declarative [`PatchDirective`].
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownPatchSlot`] when the directive names
    /// a slot the program does not expose, and
    /// [`FlowError::InvalidPatchCost`] when a cost directive would book
    /// a non-finite or negative amount.
    pub fn apply(&mut self, directive: &PatchDirective) -> Result<&mut FlowPatch, FlowError> {
        match directive {
            PatchDirective::SetCost { slot, unit_cost } => self.set_cost(slot, *unit_cost),
            PatchDirective::ScaleCost { slot, factor } => self.scale_cost(slot, *factor),
            PatchDirective::SetYield { slot, p } => self.set_yield(slot, *p),
            PatchDirective::SetCoverage { slot, p } => self.set_coverage(slot, *p),
        }
    }

    /// Override the amortization volume (minimum 1).
    pub fn set_volume(&mut self, volume: u64) -> &mut FlowPatch {
        self.volume = volume.max(1);
        self
    }

    /// Evaluate the patched program with the analytic cohort engine.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NothingShipped`] when the patched flow
    /// ships nothing and [`FlowError::NonFiniteCost`] when its costs
    /// overflow: costs each finite on their own can sum past `f64::MAX`.
    pub fn analyze(&self) -> Result<CostReport, FlowError> {
        let (entry, len) = self.program.top_region();
        analytic::analyze_ops(
            &self.ops,
            entry,
            len,
            self.program.names(),
            self.program.line_name(),
            self.nre,
            self.volume,
        )
    }

    /// The numbers of [`FlowPatch::analyze`]'s report, from the same
    /// walk but without its labels: no flow name is cloned and no defect
    /// pareto is built or sorted. Every figure equals the report's bit
    /// for bit. This is what a screen that reads only numbers should
    /// call.
    ///
    /// # Errors
    ///
    /// The same as [`FlowPatch::analyze`], for the same patches:
    /// [`FlowError::NothingShipped`] and [`FlowError::NonFiniteCost`].
    pub fn figures(&self) -> Result<CostFigures, FlowError> {
        let (entry, len) = self.program.top_region();
        analytic::figures_of_ops(
            &self.ops,
            entry,
            len,
            self.program.names().len(),
            self.program.line_name(),
            self.nre,
            self.volume,
        )
    }
}

/// Translate per-input-unit [`DualDirection`]s into per-op tangent
/// seeds on the *folded* op parameters — the inverse of the folding the
/// [`FlowPatch`] setters perform, as a chain-rule weight:
///
/// - cost slots fold `quantity × unit_cost`, so ∂folded/∂unit = `qty`;
/// - yield slots fold `p_unit^quantity`, so ∂folded/∂p_unit =
///   `qty · p_unit^(qty-1) = qty · p_good^((qty-1)/qty)` evaluated at
///   the op's compiled folded `p_good` (zero when a multi-unit slot
///   sits at `p_good = 0`, matching the one-sided derivative);
/// - coverage slots are stored unfolded, weight passes through.
fn fold_directions<'d>(
    program: &RoutingProgram,
    directions: impl IntoIterator<Item = &'d DualDirection>,
) -> Result<FoldedDirections, FlowError> {
    let mut folded = FoldedDirections::default();
    for dir in directions {
        for (name, kind, w) in &dir.parts {
            let (op, qty) = program.resolve_slot(name, *kind)?;
            let weight = match kind {
                SlotKind::Cost => w * qty as f64,
                SlotKind::Coverage => *w,
                SlotKind::Yield if qty <= 1 => *w,
                SlotKind::Yield => {
                    let Op::Step { p_good, .. } = program.ops()[op as usize] else {
                        unreachable!("yield slot registered on a non-step op");
                    };
                    let q = qty as f64;
                    if p_good <= 0.0 {
                        0.0
                    } else {
                        w * q * p_good.powf((q - 1.0) / q)
                    }
                }
            };
            folded.seeds.push(FoldedSeed {
                op,
                kind: *kind,
                weight,
            });
        }
        folded.ends.push(folded.seeds.len() as u32);
    }
    Ok(folded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostCategory, StepCost};
    use crate::line::Line;
    use crate::part::Part;
    use crate::stage::{Attach, Process, Test};
    use crate::yield_model::YieldModel;
    use crate::Flow;

    /// The unit direction along one slot.
    fn along(slot: &str, kind: SlotKind) -> DualDirection {
        DualDirection::new().with(slot, kind, 1.0)
    }

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn flow(part_cost: f64, process_yield: f64) -> Flow {
        let line = Line::builder(
            "t",
            Part::new("c", CostCategory::Substrate)
                .with_cost(StepCost::fixed(Money::new(part_cost))),
        )
        .process(Process::new("p").with_yield(YieldModel::flat(p(process_yield))))
        .attach(
            Attach::new("a").input(
                Part::new("die", CostCategory::Chip)
                    .with_cost(StepCost::fixed(Money::new(5.0)))
                    .with_incoming_yield(YieldModel::flat(p(0.95))),
                2,
            ),
        )
        .test(Test::new("ft").with_coverage(p(0.99)))
        .build()
        .unwrap();
        Flow::new(line)
    }

    #[test]
    fn patched_program_matches_rebuilt_line() {
        // Patching (carrier cost, process yield, part cost, coverage)
        // must equal rebuilding the line with those values.
        let base = flow(10.0, 0.9).compiled().unwrap();
        let mut patch = base.patch();
        patch
            .set_cost("c", Money::new(12.0))
            .unwrap()
            .set_yield("p", p(0.8))
            .unwrap()
            .set_cost("a/die", Money::new(6.0))
            .unwrap()
            .set_yield("a/die", p(0.9))
            .unwrap()
            .set_coverage("ft", p(0.95))
            .unwrap();
        let patched = patch.analyze().unwrap();

        let rebuilt_line = Line::builder(
            "t",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(12.0))),
        )
        .process(Process::new("p").with_yield(YieldModel::flat(p(0.8))))
        .attach(
            Attach::new("a").input(
                Part::new("die", CostCategory::Chip)
                    .with_cost(StepCost::fixed(Money::new(6.0)))
                    .with_incoming_yield(YieldModel::flat(p(0.9))),
                2,
            ),
        )
        .test(Test::new("ft").with_coverage(p(0.95)))
        .build()
        .unwrap();
        let rebuilt = Flow::new(rebuilt_line).analyze().unwrap();
        assert_eq!(patched.shipped_fraction(), rebuilt.shipped_fraction());
        assert_eq!(patched.total_spend(), rebuilt.total_spend());
        assert_eq!(
            patched.final_cost_per_shipped(),
            rebuilt.final_cost_per_shipped()
        );
    }

    #[test]
    fn unknown_slot_is_reported() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let mut patch = base.patch();
        let err = patch.set_cost("ghost", Money::new(1.0)).unwrap_err();
        assert!(matches!(err, FlowError::UnknownPatchSlot { .. }));
        assert!(err.to_string().contains("ghost"));
        // The attach op is free and certain — compiled away, hence no
        // yield slot to patch.
        let err = patch.set_yield("a", p(0.5)).unwrap_err();
        assert!(matches!(err, FlowError::UnknownPatchSlot { .. }));
    }

    #[test]
    fn costs_the_verifier_rejects_are_refused() {
        // Scaled below zero, set below zero, scaled past f64::MAX.
        let base = flow(10.0, 0.9).compiled().unwrap();
        let mut patch = base.patch();
        let before = patch.analyze().unwrap();
        for (directive, refused) in [
            (
                PatchDirective::ScaleCost {
                    slot: "c".into(),
                    factor: -1.0,
                },
                -10.0,
            ),
            (
                PatchDirective::SetCost {
                    slot: "c".into(),
                    unit_cost: Money::new(-5.0),
                },
                -5.0,
            ),
            (
                PatchDirective::ScaleCost {
                    slot: "c".into(),
                    factor: 1e308,
                },
                f64::INFINITY,
            ),
        ] {
            let err = patch.apply(&directive).unwrap_err();
            assert_eq!(
                err,
                FlowError::InvalidPatchCost {
                    slot: "c".into(),
                    value: refused
                }
            );
            assert!(err.to_string().contains("\"c\""), "{err}");
        }
        // A refused write leaves the op and the write count untouched.
        assert_eq!(patch.writes(), 0);
        assert_eq!(patch.analyze().unwrap(), before);
        assert!(!patch.lint().has_errors());
        // Zero and −0 pass, as they pass the verifier.
        patch
            .set_cost("c", Money::new(-0.0))
            .unwrap()
            .scale_cost("c", 0.0)
            .unwrap();
        assert_eq!(patch.writes(), 2);
        assert!(!patch.lint().has_errors());
    }

    #[test]
    fn costs_that_overflow_when_summed_are_refused() {
        // Each write is finite and accepted, but together they book
        // 2e308 per unit: the analysis refuses the overflow instead of
        // returning a report whose scrap spend is ∞ − ∞.
        let base = flow(10.0, 0.9).compiled().unwrap();
        let mut patch = base.patch();
        patch
            .set_cost("c", Money::new(1e308))
            .unwrap()
            .set_cost("a/die", Money::new(5e307))
            .unwrap();
        assert_eq!(patch.writes(), 2);
        let err = patch.analyze().unwrap_err();
        assert_eq!(err, FlowError::NonFiniteCost { flow: "t".into() });
        assert!(err.to_string().contains("\"t\""), "{err}");
    }

    #[test]
    fn duplicate_stage_names_are_ambiguous_not_shadowed() {
        // Line validation allows two stages with the same name; a
        // patch naming them must error instead of silently updating
        // only the first.
        let line = Line::builder(
            "dup",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(1.0))),
        )
        .process(
            Process::new("anneal")
                .with_cost(StepCost::fixed(Money::new(2.0)))
                .with_yield(YieldModel::flat(p(0.9))),
        )
        .process(
            Process::new("anneal")
                .with_cost(StepCost::fixed(Money::new(3.0)))
                .with_yield(YieldModel::flat(p(0.95))),
        )
        .build()
        .unwrap();
        let base = Flow::new(line).compiled().unwrap();
        let mut patch = base.patch();
        let err = patch.set_cost("anneal", Money::new(9.0)).unwrap_err();
        assert!(matches!(err, FlowError::AmbiguousPatchSlot { .. }));
        assert!(err.to_string().contains("anneal"));
        // The unique carrier slot still resolves.
        assert!(patch.set_cost("c", Money::new(2.0)).is_ok());
    }

    #[test]
    fn patched_lint_runs_in_patched_mode() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let mut patch = base.patch();
        patch.set_yield("p", Probability::ONE).unwrap();
        let diags = patch.lint();
        // A degenerate patched probability is info-grade, not an error.
        assert!(!diags.has_errors(), "{diags}");
        assert!(diags.iter().any(|d| d.code == "degenerate-patched-step"));
    }

    #[test]
    fn directives_match_setters() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let mut by_setter = base.patch();
        by_setter.scale_cost("a/die", 1.5).unwrap();
        let mut by_directive = base.patch();
        by_directive
            .apply(&PatchDirective::ScaleCost {
                slot: "a/die".into(),
                factor: 1.5,
            })
            .unwrap();
        assert_eq!(
            by_setter.analyze().unwrap(),
            by_directive.analyze().unwrap()
        );
        // A slot written twice keeps its last value, and both writes
        // count.
        let mut twice = base.patch();
        twice
            .apply(&PatchDirective::SetCost {
                slot: "c".into(),
                unit_cost: Money::new(11.0),
            })
            .unwrap()
            .apply(&PatchDirective::SetCost {
                slot: "c".into(),
                unit_cost: Money::new(12.0),
            })
            .unwrap();
        let mut once = base.patch();
        once.set_cost("c", Money::new(12.0)).unwrap();
        assert_eq!(twice.analyze().unwrap(), once.analyze().unwrap());
        assert_eq!((twice.writes(), once.writes()), (2, 1));
    }

    #[test]
    fn slots_enumerate_the_patchable_surface() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let slots: Vec<(String, SlotKind)> = base.slots().map(|(n, k)| (n.to_owned(), k)).collect();
        assert!(slots.contains(&("c".into(), SlotKind::Cost)));
        assert!(slots.contains(&("p".into(), SlotKind::Yield)));
        assert!(slots.contains(&("a/die".into(), SlotKind::Cost)));
        assert!(slots.contains(&("ft".into(), SlotKind::Coverage)));
    }

    #[test]
    fn degenerate_patched_yield_is_analytically_sound() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let mut patch = base.patch();
        patch.set_yield("p", Probability::ONE).unwrap();
        let certain = patch.analyze().unwrap();
        assert!(certain.shipped_fraction() > base.analyze().unwrap().shipped_fraction());
        let mut patch = base.patch();
        patch.set_yield("p", Probability::ZERO).unwrap();
        // Everything defective and the test catches 99 %: almost
        // nothing ships, but the walker stays well-defined.
        let doomed = patch.analyze().unwrap();
        assert!(doomed.shipped_fraction() < 0.05);
    }

    /// Central finite difference of `metric` under `apply(x)` patching.
    fn central_fd(
        base: &CompiledFlow,
        x0: f64,
        h: f64,
        apply: impl Fn(&mut FlowPatch, f64),
        metric: impl Fn(&CostReport) -> f64,
    ) -> f64 {
        let mut lo = base.patch();
        apply(&mut lo, x0 - h);
        let mut hi = base.patch();
        apply(&mut hi, x0 + h);
        (metric(&hi.analyze().unwrap()) - metric(&lo.analyze().unwrap())) / (2.0 * h)
    }

    #[test]
    fn dual_primal_is_bit_identical_to_analyze() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let dirs = [
            along("c", SlotKind::Cost),
            along("a/die", SlotKind::Cost),
            along("p", SlotKind::Yield),
            along("a/die", SlotKind::Yield),
            along("ft", SlotKind::Coverage),
        ];
        let dual = base.analyze_duals(&dirs).unwrap();
        assert_eq!(dual.report, base.analyze().unwrap());
        assert_eq!(dual.gradients.len(), dirs.len());
    }

    #[test]
    fn dual_gradients_match_finite_differences() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let dual = base
            .analyze_duals(&[
                along("c", SlotKind::Cost),
                along("a/die", SlotKind::Cost),
                along("p", SlotKind::Yield),
                along("a/die", SlotKind::Yield),
                along("ft", SlotKind::Coverage),
            ])
            .unwrap();
        let h = 1e-6;
        type Setter = Box<dyn Fn(&mut FlowPatch, f64)>;
        let cases: [(f64, Setter); 5] = [
            (
                10.0,
                Box::new(|p, x| {
                    p.set_cost("c", Money::new(x)).unwrap();
                }),
            ),
            (
                5.0,
                Box::new(|p, x| {
                    p.set_cost("a/die", Money::new(x)).unwrap();
                }),
            ),
            (
                0.9,
                Box::new(|pt, x| {
                    pt.set_yield("p", p(x)).unwrap();
                }),
            ),
            (
                0.95,
                Box::new(|pt, x| {
                    pt.set_yield("a/die", p(x)).unwrap();
                }),
            ),
            (
                0.99,
                Box::new(|pt, x| {
                    pt.set_coverage("ft", p(x)).unwrap();
                }),
            ),
        ];
        for (g, (x0, apply)) in dual.gradients.iter().zip(&cases) {
            let fd = central_fd(&base, *x0, h, apply, |r| r.final_cost_per_shipped().units());
            assert!(
                (g.final_cost_per_shipped - fd).abs() <= 1e-6 * fd.abs().max(1.0),
                "dual {} vs fd {fd}",
                g.final_cost_per_shipped,
            );
            let fd_ship = central_fd(&base, *x0, h, apply, |r| r.shipped_fraction());
            assert!((g.shipped_fraction - fd_ship).abs() <= 1e-6 * fd_ship.abs().max(1.0));
        }
        // Cost directions are exact-linear: extrapolating the carrier
        // cost by a *finite* step must land exactly on the re-analyzed
        // value (cohort masses don't depend on costs).
        let g = dual.gradients[0].final_cost_per_shipped;
        let base_cost = dual.report.final_cost_per_shipped().units();
        let mut jumped = base.patch();
        jumped.set_cost("c", Money::new(17.5)).unwrap();
        let expect = jumped.analyze().unwrap().final_cost_per_shipped().units();
        assert!((base_cost + g * 7.5 - expect).abs() <= 1e-12 * expect.abs());
    }

    #[test]
    fn multi_slot_direction_sums_component_derivatives() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        // d/ds of scaling *both* cost slots by (1+s) at s=0: weight each
        // slot by its current per-unit cost.
        let combined =
            DualDirection::new()
                .with("c", SlotKind::Cost, 10.0)
                .with("a/die", SlotKind::Cost, 5.0);
        let dual = base
            .analyze_duals(&[
                combined,
                along("c", SlotKind::Cost),
                along("a/die", SlotKind::Cost),
            ])
            .unwrap();
        let lhs = dual.gradients[0].final_cost_per_shipped;
        let rhs = 10.0 * dual.gradients[1].final_cost_per_shipped
            + 5.0 * dual.gradients[2].final_cost_per_shipped;
        assert!((lhs - rhs).abs() <= 1e-12 * rhs.abs());
    }

    #[test]
    fn dual_directions_resolve_like_the_setters() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let err = base
            .analyze_duals(&[along("ghost", SlotKind::Cost)])
            .unwrap_err();
        assert!(matches!(err, FlowError::UnknownPatchSlot { .. }));
        // No-direction call degenerates to a plain analyze.
        let empty = base.analyze_duals(&[]).unwrap();
        assert_eq!(empty.report, base.analyze().unwrap());
        assert!(empty.gradients.is_empty());
    }

    #[test]
    fn more_than_max_width_directions_chunk_correctly() {
        // 20 directions forces two chunks (16 + 4); lane bookkeeping
        // must not bleed across chunk boundaries.
        let base = flow(10.0, 0.9).compiled().unwrap();
        let one = base.analyze_duals(&[along("c", SlotKind::Cost)]).unwrap();
        let many: Vec<DualDirection> = (0..20).map(|_| along("c", SlotKind::Cost)).collect();
        let wide = base.analyze_duals(&many).unwrap();
        assert_eq!(wide.report, one.report);
        assert_eq!(wide.gradients.len(), 20);
        for g in &wide.gradients {
            assert_eq!(*g, one.gradients[0]);
        }
    }

    #[test]
    fn compiled_flow_engines_match_flow_engines() {
        let f = flow(10.0, 0.9);
        let compiled = f.compiled().unwrap();
        assert_eq!(compiled.name(), "t");
        assert_eq!(compiled.analyze().unwrap(), f.analyze().unwrap());
        let opts = SimOptions::new(5_000).with_seed(11);
        assert_eq!(
            compiled.simulate_summary(&opts).unwrap().report,
            f.simulate(&opts).unwrap()
        );
    }
}
