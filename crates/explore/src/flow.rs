//! The production-flow binding: explore a [`CompiledFlow`] by patching.
//!
//! A [`FlowAxis`] binds a generic [`Axis`] to a patch slot of the
//! compiled program (or to the amortization volume, or to a custom
//! patch procedure); a [`Metric`] reads one objective value off a
//! report's [`CostFigures`]. The explorer then drives the pipeline the
//! paper's scenario questions ask for:
//!
//! 1. **sample** the axes on the full grid,
//! 2. **screen** every point analytically — a [`FlowPatch`] per point,
//!    ~hundreds of nanoseconds each,
//! 3. **extract** the Pareto frontier over the objectives,
//! 4. optionally **refine**: promote only frontier-adjacent points to
//!    seeded Monte Carlo confirmation (with CI-based early stopping),
//!    rebuilding the line per promoted point — patched programs are
//!    analytic-only by contract.
//!
//! Steps 1–3 share one private per-point evaluator (patch, walk, read
//! the objectives); [`FlowExplorer::explore`] keeps every point,
//! [`FlowExplorer::screen_frontier`] only the frontier.

use crate::engine::Exploration;
use crate::error::ExploreError;
use crate::pareto::{dominates, DesignPoint, ParetoFrontier, Sense};
use crate::sample::{PointSet, SamplerSpec};
use crate::space::{Axis, Levels};
use ipass_moe::{CompiledFlow, CostFigures, Flow, FlowError, FlowPatch, SimOptions, StopRule};
use ipass_obs::Profiler;
use ipass_sim::{Executor, SimRng};
use ipass_units::{Money, Probability};
use std::fmt;
use std::sync::Arc;

/// A caller-supplied patch procedure (the [`FlowTarget::Custom`]
/// payload): writes one axis value into a [`FlowPatch`], possibly
/// across several coupled slots.
pub type CustomPatch = Arc<dyn Fn(f64, &mut FlowPatch) -> Result<(), FlowError> + Send + Sync>;

/// What a [`FlowAxis`] value is written into.
#[derive(Clone)]
pub enum FlowTarget {
    /// A cost slot, set to the axis value per input unit
    /// ([`FlowPatch::set_cost`]).
    UnitCost {
        /// Patch-slot name.
        slot: String,
    },
    /// A cost slot, scaled by the axis value
    /// ([`FlowPatch::scale_cost`]).
    CostScale {
        /// Patch-slot name.
        slot: String,
    },
    /// A test-coverage slot, set to the axis value
    /// ([`FlowPatch::set_coverage`]).
    Coverage {
        /// Patch-slot name.
        slot: String,
    },
    /// The amortization volume ([`FlowPatch::set_volume`]), rounded to
    /// the nearest unit (minimum 1).
    Volume,
    /// A caller-supplied patch procedure, for axis values that move
    /// several coupled slots at once (e.g. a substrate yield whose
    /// known-good markup moves the carrier cost too).
    Custom(CustomPatch),
}

impl fmt::Debug for FlowTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowTarget::UnitCost { slot } => write!(f, "UnitCost({slot:?})"),
            FlowTarget::CostScale { slot } => write!(f, "CostScale({slot:?})"),
            FlowTarget::Coverage { slot } => write!(f, "Coverage({slot:?})"),
            FlowTarget::Volume => write!(f, "Volume"),
            FlowTarget::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

/// One axis of a production-flow design space: a generic [`Axis`] plus
/// where its value lands in the compiled program.
#[derive(Debug, Clone)]
pub struct FlowAxis {
    /// The generic axis (name + levels).
    pub axis: Axis,
    /// Where the value is written.
    pub target: FlowTarget,
}

impl FlowAxis {
    fn new(name: impl Into<String>, levels: Levels, target: FlowTarget) -> FlowAxis {
        FlowAxis {
            axis: Axis::new(name, levels),
            target,
        }
    }

    /// A per-input-unit cost axis on `slot`.
    pub fn unit_cost(slot: impl Into<String>, levels: Levels) -> FlowAxis {
        let slot = slot.into();
        FlowAxis::new(
            format!("{slot} cost"),
            levels,
            FlowTarget::UnitCost { slot },
        )
    }

    /// A cost-scale axis on `slot` (axis value multiplies the compiled
    /// cost).
    pub fn cost_scale(slot: impl Into<String>, levels: Levels) -> FlowAxis {
        let slot = slot.into();
        FlowAxis::new(
            format!("{slot} cost ×"),
            levels,
            FlowTarget::CostScale { slot },
        )
    }

    /// A fault-coverage axis on test stage `slot` (levels must stay
    /// inside `[0, 1]`).
    pub fn coverage(slot: impl Into<String>, levels: Levels) -> FlowAxis {
        let slot = slot.into();
        FlowAxis::new(
            format!("{slot} coverage"),
            levels,
            FlowTarget::Coverage { slot },
        )
    }

    /// An amortization-volume axis.
    pub fn volume(levels: Levels) -> FlowAxis {
        FlowAxis::new("volume", levels, FlowTarget::Volume)
    }

    /// A custom axis applying `apply(value, patch)` per point.
    pub fn custom(
        name: impl Into<String>,
        levels: Levels,
        apply: impl Fn(f64, &mut FlowPatch) -> Result<(), FlowError> + Send + Sync + 'static,
    ) -> FlowAxis {
        FlowAxis::new(name, levels, FlowTarget::Custom(Arc::new(apply)))
    }

    /// Write value `x` into `patch`.
    fn apply(&self, x: f64, patch: &mut FlowPatch) -> Result<(), FlowError> {
        match &self.target {
            FlowTarget::UnitCost { slot } => {
                patch.set_cost(slot, Money::new(x))?;
            }
            FlowTarget::CostScale { slot } => {
                patch.scale_cost(slot, x)?;
            }
            FlowTarget::Coverage { slot } => {
                patch.set_coverage(slot, Probability::clamped(x))?;
            }
            FlowTarget::Volume => {
                patch.set_volume(x.round().max(1.0) as u64);
            }
            FlowTarget::Custom(apply) => apply(x, patch)?,
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), ExploreError> {
        self.axis.levels.validate(&self.axis.name)?;
        if matches!(self.target, FlowTarget::Coverage { .. }) {
            let (lo, hi) = self.axis.levels.bounds();
            if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) {
                return Err(ExploreError::ProbabilityAxisOutOfRange {
                    axis: self.axis.name.clone(),
                    lo,
                    hi,
                });
            }
        }
        Ok(())
    }
}

/// A scalar read off a report's [`CostFigures`] — the objective
/// vocabulary of the flow explorer. A [`CostReport`] derefs to its
/// figures, so `metric.of(&report)` reads the same value.
///
/// [`CostReport`]: ipass_moe::CostReport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// The paper's Eq. 1: final cost per shipped unit.
    FinalCostPerShipped,
    /// Direct (embodied) cost per shipped unit.
    DirectCostPerShipped,
    /// Yield-loss share per shipped unit.
    YieldLossPerShipped,
    /// Total spend over the whole run.
    TotalSpend,
    /// Fraction of started units that ship.
    ShippedFraction,
    /// Fraction of shipped units that are latent escapes.
    EscapeRate,
}

impl Metric {
    /// Read the metric off a report's figures.
    pub fn of(self, figures: &CostFigures) -> f64 {
        match self {
            Metric::FinalCostPerShipped => figures.final_cost_per_shipped().units(),
            Metric::DirectCostPerShipped => figures.direct_cost_per_shipped().units(),
            Metric::YieldLossPerShipped => figures.yield_loss_per_shipped().units(),
            Metric::TotalSpend => figures.total_spend().units(),
            Metric::ShippedFraction => figures.shipped_fraction(),
            Metric::EscapeRate => figures.escape_rate(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::FinalCostPerShipped => "final cost/shipped",
            Metric::DirectCostPerShipped => "direct cost/shipped",
            Metric::YieldLossPerShipped => "yield loss/shipped",
            Metric::TotalSpend => "total spend",
            Metric::ShippedFraction => "shipped fraction",
            Metric::EscapeRate => "escape rate",
        }
    }
}

/// One objective of a flow exploration: a metric and the direction in
/// which it improves.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Display label.
    pub label: String,
    /// The metric read off each point's report.
    pub metric: Metric,
    /// Which direction improves.
    pub sense: Sense,
}

impl Objective {
    /// Minimize `metric`.
    pub fn minimize(metric: Metric) -> Objective {
        Objective {
            label: metric.name().into(),
            metric,
            sense: Sense::Minimize,
        }
    }

    /// Maximize `metric`.
    pub fn maximize(metric: Metric) -> Objective {
        Objective {
            label: metric.name().into(),
            metric,
            sense: Sense::Maximize,
        }
    }
}

/// Options for [`FlowExplorer::refine`].
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Promotion margin on min-max-normalized objectives: a point is
    /// *pruned* when some dominating point beats it by at least this
    /// fraction of the observed range in **every** (non-constant)
    /// objective — ε-dominance, so the Monte Carlo budget goes only to
    /// the ε-non-dominated band around the frontier and no pruned
    /// point can re-enter it under estimator noise below the margin.
    /// 0 promotes exactly the frontier; larger values widen the band.
    pub margin: f64,
    /// Monte Carlo unit budget per promoted point.
    pub mc_units: u64,
    /// Base seed; promoted point `i` simulates under a seed derived
    /// from `(seed, i)`, so confirmations are reproducible and
    /// independent of which other points were promoted.
    pub seed: u64,
    /// Optional CI-based early stopping (see
    /// [`Flow::simulate_adaptive`]).
    pub stop: Option<StopRule>,
}

impl Default for RefineOptions {
    fn default() -> RefineOptions {
        RefineOptions {
            margin: 0.05,
            mc_units: 20_000,
            seed: 0x1DEA_5EED,
            stop: None,
        }
    }
}

/// One promoted point's Monte Carlo confirmation.
#[derive(Debug, Clone)]
pub struct Confirmation {
    /// The confirmed point's grid index.
    pub index: usize,
    /// Objective values measured by the Monte Carlo engine (aligned
    /// with the exploration's objectives).
    pub objectives: Vec<f64>,
    /// Units actually routed (less than the budget under early
    /// stopping).
    pub units_run: f64,
    /// Whether the early-stopping rule fired.
    pub stopped_early: bool,
}

/// The outcome of [`FlowExplorer::refine`].
#[derive(Debug, Clone)]
pub struct Refined {
    /// The full analytic screen (every sampled point).
    pub screen: Exploration,
    /// Indices of the points promoted to Monte Carlo, ascending.
    pub promoted: Vec<usize>,
    /// Per-promoted-point Monte Carlo confirmations, aligned with
    /// `promoted`.
    pub confirmations: Vec<Confirmation>,
}

impl Refined {
    /// The analytic Pareto frontier (exact — the analytic engine is
    /// closed-form, so this *is* the full-grid frontier).
    pub fn frontier(&self) -> &ParetoFrontier {
        &self.screen.frontier
    }

    /// Fraction of screened points that paid for a Monte Carlo run.
    pub fn promoted_fraction(&self) -> f64 {
        self.promoted.len() as f64 / self.screen.points.len().max(1) as f64
    }

    /// The refinement as a typed [`FrontierPlot`] artifact: the full
    /// analytic screen with frontier flags, plus the Monte Carlo
    /// measurements attached to every promoted point.
    ///
    /// [`FrontierPlot`]: ipass_report::FrontierPlot
    pub fn frontier_plot(&self, title: impl Into<String>) -> ipass_report::FrontierPlot {
        let mut plot = self.screen.frontier_plot(title);
        for c in &self.confirmations {
            plot.points[c.index].confirmed = Some(c.objectives.clone());
        }
        plot.note(format!(
            "{} of {} points promoted to MC confirmation ({} stopped early)",
            self.promoted.len(),
            self.screen.points.len(),
            self.confirmations
                .iter()
                .filter(|c| c.stopped_early)
                .count(),
        ))
    }
}

/// The production-flow design-space explorer (see the [crate
/// docs](crate) for the pipeline).
///
/// # Examples
///
/// ```
/// use ipass_explore::{FlowAxis, FlowExplorer, Levels, Metric, Objective, SamplerSpec};
/// use ipass_moe::{CostCategory, Flow, Line, Part, Process, StepCost, Test, YieldModel};
/// use ipass_units::{Money, Probability};
///
/// let line = Line::builder("demo", Part::new("board", CostCategory::Substrate)
///         .with_cost(StepCost::fixed(Money::new(2.0))))
///     .process(Process::new("assemble")
///         .with_cost(StepCost::fixed(Money::new(1.0)))
///         .with_yield(YieldModel::percent(95.0)))
///     .test(Test::new("test")
///         .with_cost(StepCost::fixed(Money::new(0.5)))
///         .with_coverage(Probability::new(0.95)?))
///     .build()?;
/// let exploration = FlowExplorer::new(Flow::new(line).compiled()?)
///     .axis(FlowAxis::cost_scale("board", Levels::linspace(0.5, 1.5, 8)))
///     .axis(FlowAxis::coverage("test", Levels::linspace(0.9, 0.999, 8)))
///     .objective(Objective::minimize(Metric::FinalCostPerShipped))
///     .objective(Objective::minimize(Metric::EscapeRate))
///     .explore(&SamplerSpec::Grid)?;
/// assert_eq!(exploration.points.len(), 64);
/// assert!(!exploration.frontier.members().is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowExplorer {
    compiled: CompiledFlow,
    axes: Vec<FlowAxis>,
    objectives: Vec<Objective>,
    executor: Executor,
    profiler: Option<Profiler>,
}

impl FlowExplorer {
    /// An explorer over a compiled flow, with no axes or objectives yet
    /// and an executor sized to the machine.
    pub fn new(compiled: CompiledFlow) -> FlowExplorer {
        FlowExplorer {
            compiled,
            axes: Vec::new(),
            objectives: Vec::new(),
            executor: Executor::available(),
            profiler: None,
        }
    }

    /// Add an axis.
    pub fn axis(mut self, axis: FlowAxis) -> FlowExplorer {
        self.axes.push(axis);
        self
    }

    /// Add an objective.
    pub fn objective(mut self, objective: Objective) -> FlowExplorer {
        self.objectives.push(objective);
        self
    }

    /// Change the executor (results never depend on the choice).
    pub fn with_executor(mut self, executor: Executor) -> FlowExplorer {
        self.executor = executor;
        self
    }

    /// Attach a wall-clock profiler: [`FlowExplorer::explore`] and
    /// [`FlowExplorer::screen_frontier`] record a `"screen"` span;
    /// [`FlowExplorer::refine`] adds a `"promote"` span around the
    /// choice of points to confirm and a `"confirm"` span around the
    /// Monte Carlo pass. Timings live strictly outside the deterministic
    /// plane — no result ever depends on them.
    pub fn with_profiler(mut self, profiler: Profiler) -> FlowExplorer {
        self.profiler = Some(profiler);
        self
    }

    /// The compiled flow under exploration.
    pub fn compiled(&self) -> &CompiledFlow {
        &self.compiled
    }

    /// Check the explorer's shape and resolve `sampler` against its
    /// axes.
    fn sample(&self, sampler: &SamplerSpec) -> Result<PointSet, ExploreError> {
        if self.axes.is_empty() {
            return Err(ExploreError::NoAxes);
        }
        if self.objectives.is_empty() {
            return Err(ExploreError::NoObjectives);
        }
        for axis in &self.axes {
            axis.validate()?;
        }
        let axes: Vec<Axis> = self.axes.iter().map(|a| a.axis.clone()).collect();
        sampler.points(&axes)
    }

    fn senses(&self) -> Vec<Sense> {
        self.objectives.iter().map(|o| o.sense).collect()
    }

    /// The objective values read off `figures`, refused when one is NaN.
    fn measure(&self, index: usize, figures: &CostFigures) -> Result<Vec<f64>, ExploreError> {
        checked_objectives(
            index,
            self.objectives
                .iter()
                .map(|o| o.metric.of(figures))
                .collect(),
            &self.objectives,
        )
    }

    /// Screen one point: write its coordinates into a patch of the
    /// compiled program and walk it analytically. It reads
    /// [`FlowPatch::figures`], so no point builds a report's labels.
    fn evaluate(&self, index: usize, coords: Vec<f64>) -> Result<DesignPoint, ExploreError> {
        let mut patch = self.compiled.patch();
        for (axis, &x) in self.axes.iter().zip(&coords) {
            axis.apply(x, &mut patch)?;
        }
        let objectives = self.measure(index, &patch.figures()?)?;
        Ok(DesignPoint {
            index,
            coords,
            objectives,
        })
    }

    /// Sample and analytically evaluate every point in parallel on the
    /// explorer's executor (results independent of the thread count),
    /// returning the full screen with its Pareto frontier.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] when the space or objectives are
    /// degenerate or any point fails to evaluate (first failure in
    /// point order).
    pub fn explore(&self, sampler: &SamplerSpec) -> Result<Exploration, ExploreError> {
        let _span = self.profiler.as_ref().map(|p| p.span("screen"));
        let pts = self.sample(sampler)?;
        let indices: Vec<usize> = (0..pts.len()).collect();
        let points = self
            .executor
            .try_map(&indices, |_, &i| self.evaluate(i, pts.coords(i)))?;
        let senses = self.senses();
        let frontier = ParetoFrontier::of_points(senses.clone(), &points);
        Ok(Exploration {
            axes: self.axes.iter().map(|a| a.axis.name.clone()).collect(),
            objectives: self.objectives.iter().map(|o| o.label.clone()).collect(),
            senses,
            points,
            frontier,
        })
    }

    /// Like [`FlowExplorer::explore`], but reduce straight to the Pareto
    /// frontier without retaining the screened points: `O(frontier)`
    /// memory, for grids too large to keep.
    ///
    /// Runs on the executor's chunked map-reduce
    /// ([`Executor::try_map_reduce`]): each chunk folds into a local
    /// frontier, chunk frontiers merge in chunk order, and because
    /// frontier membership is insertion-order invariant the result is
    /// identical for any thread count and chunk geometry.
    ///
    /// # Errors
    ///
    /// See [`FlowExplorer::explore`].
    pub fn screen_frontier(&self, sampler: &SamplerSpec) -> Result<ParetoFrontier, ExploreError> {
        let _span = self.profiler.as_ref().map(|p| p.span("screen"));
        let pts = self.sample(sampler)?;
        let senses = self.senses();
        self.executor.try_map_reduce(
            pts.len() as u64,
            || ParetoFrontier::new(senses.clone()),
            |unit, acc| {
                let i = unit as usize;
                acc.insert(self.evaluate(i, pts.coords(i))?);
                Ok(())
            },
            |into, from| into.merge(from),
        )
    }

    /// Adaptive refinement: screen every point analytically, prune
    /// everything a clear margin inside the dominated region, and
    /// promote only the frontier-adjacent remainder to seeded Monte
    /// Carlo confirmation.
    ///
    /// `build` rebuilds the production flow for a promoted point's
    /// coordinates — the Monte Carlo engine's draw-stream contract is
    /// defined by compiling a line, so modified models are re-compiled,
    /// never patched (see `ipass_moe::patch`). Each promoted point
    /// simulates under its own derived seed; results are bit-identical
    /// for any executor thread count.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] when the screen fails, `build` fails,
    /// or a promoted point's simulation fails (first failure in point
    /// order).
    pub fn refine<B>(
        &self,
        sampler: &SamplerSpec,
        options: &RefineOptions,
        build: B,
    ) -> Result<Refined, ExploreError>
    where
        B: Fn(&[f64]) -> Result<Flow, FlowError> + Sync,
    {
        let screen = self.explore(sampler)?;
        let promoted = {
            let _span = self.profiler.as_ref().map(|p| p.span("promote"));
            promote(&screen, options.margin)
        };
        let _span = self.profiler.as_ref().map(|p| p.span("confirm"));
        let confirmations = self.executor.try_map(&promoted, |_, &i| {
            let point = &screen.points[i];
            let flow = build(&point.coords)?;
            let seed = SimRng::stream(options.seed, i as u64).next_u64();
            let sim = SimOptions::new(options.mc_units).with_seed(seed);
            let summary = match options.stop {
                Some(rule) => flow.simulate_adaptive(&sim, rule),
                None => flow.simulate_summary(&sim),
            }?;
            Ok::<Confirmation, ExploreError>(Confirmation {
                index: i,
                objectives: self.measure(i, &summary.report)?,
                units_run: summary.report.started(),
                stopped_early: summary.stopped_early,
            })
        })?;
        Ok(Refined {
            screen,
            promoted,
            confirmations,
        })
    }
}

/// Refuse an objective vector with a NaN value: NaN has no place in a
/// dominance order, so the point would silently win or lose every
/// comparison.
fn checked_objectives(
    point: usize,
    values: Vec<f64>,
    objectives: &[Objective],
) -> Result<Vec<f64>, ExploreError> {
    match values.iter().position(|v| v.is_nan()) {
        Some(k) => Err(ExploreError::NanObjective {
            point,
            objective: objectives[k].label.clone(),
        }),
        None => Ok(values),
    }
}

/// The ε-non-dominated promotion set: a point is pruned when some
/// *dominating* point beats it by at least `margin` of the observed
/// (min-max) range in **every** non-constant objective — standard
/// ε-dominance, so a pruned point cannot re-enter the frontier under
/// estimator noise smaller than the margin in any single objective.
/// Frontier members are never dominated, so the promotion set is
/// always a frontier superset, and `margin = 0` promotes exactly the
/// frontier.
///
/// Only frontier members are tried as pruners, for the same set as
/// trying every screened point. If q ε-dominates p, some member f
/// equals or dominates q (the frontier keeps exact ties), so f
/// dominates p; and `norm` is a chain of correctly rounded subtractions
/// and divisions, hence monotone, so `norm(f, j) ≤ norm(q, j)` and f
/// ε-dominates p too. Members are screened points, so the scan never
/// prunes a point the all-pairs scan keeps.
///
/// Of the members, only a prefix is scanned. They are sorted by
/// normalized objective 0, and each point binary-searches the exact
/// test `norm(p, 0) − norm(q, 0) ≥ margin`: a correctly rounded
/// subtraction is monotone in `norm(q, 0)`, so the members that pass it
/// are a prefix, and no member past it can prune the point. Where
/// objective 0 is constant, or a member's normalized objective 0 is
/// NaN, every member is scanned.
///
/// Caveat: when an objective is ±∞, or its `hi − lo` overflows, `norm`
/// yields NaN and the monotone step fails. The all-pairs answer then
/// rests on NaN comparisons, and the member scan promotes a superset
/// of it, never fewer points.
fn promote(screen: &Exploration, margin: f64) -> Vec<usize> {
    let scale = Normalized::of(screen);
    let members = screen.frontier.members();
    let mut by_first: Vec<(f64, &DesignPoint)> =
        members.iter().map(|q| (scale.norm(q, 0), q)).collect();
    if !scale.live.first().copied().unwrap_or(false) || by_first.iter().any(|(v, _)| v.is_nan()) {
        return promote_against(screen, margin, members);
    }
    by_first.sort_by(|a, b| a.0.total_cmp(&b.0));
    let k = screen.senses.len();
    let norms = scale.flat(by_first.iter().map(|&(_, q)| q));
    let mut pn = vec![0.0; k];
    (0..screen.points.len())
        .filter(|&i| {
            let p = &screen.points[i];
            scale.write(p, &mut pn);
            let cut = by_first.partition_point(|(first, _)| pn[0] - first >= margin);
            // Nearest first: the last member of the prefix is the likeliest
            // pruner.
            !(0..cut).rev().any(|s| {
                let q = (by_first[s].1, &norms[s * k..(s + 1) * k]);
                scale.prunes(margin, q, (p, &pn))
            })
        })
        .collect()
}

/// Every screened point that no point of `pruners`, tried one by one,
/// ε-dominates (see [`promote`]).
fn promote_against(screen: &Exploration, margin: f64, pruners: &[DesignPoint]) -> Vec<usize> {
    let scale = Normalized::of(screen);
    let k = screen.senses.len();
    let norms = scale.flat(pruners);
    let mut pn = vec![0.0; k];
    (0..screen.points.len())
        .filter(|&i| {
            let p = &screen.points[i];
            scale.write(p, &mut pn);
            !pruners
                .iter()
                .enumerate()
                .any(|(s, q)| scale.prunes(margin, (q, &norms[s * k..(s + 1) * k]), (p, &pn)))
        })
        .collect()
}

/// Min-max normalization of a screen's objectives, flipped so every
/// objective minimizes; (near-)constant objectives carry no distance
/// information and are excluded from the margin test.
struct Normalized<'a> {
    senses: &'a [Sense],
    lo: Vec<f64>,
    range: Vec<f64>,
    live: Vec<bool>,
}

impl Normalized<'_> {
    fn of(screen: &Exploration) -> Normalized<'_> {
        let k = screen.senses.len();
        let mut lo = vec![f64::INFINITY; k];
        let mut hi = vec![f64::NEG_INFINITY; k];
        for p in &screen.points {
            for (j, &v) in p.objectives.iter().enumerate() {
                lo[j] = lo[j].min(v);
                hi[j] = hi[j].max(v);
            }
        }
        let range: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| h - l).collect();
        let live = range
            .iter()
            .zip(&lo)
            .map(|(r, l)| *r > 1e-12 * l.abs().max(1.0))
            .collect();
        Normalized {
            senses: &screen.senses,
            lo,
            range,
            live,
        }
    }

    fn norm(&self, p: &DesignPoint, j: usize) -> f64 {
        let u = (p.objectives[j] - self.lo[j]) / self.range[j];
        match self.senses[j] {
            Sense::Minimize => u,
            Sense::Maximize => 1.0 - u,
        }
    }

    /// Write `p`'s normalized objectives into `out`.
    fn write(&self, p: &DesignPoint, out: &mut [f64]) {
        for (j, v) in out.iter_mut().enumerate() {
            *v = self.norm(p, j);
        }
    }

    /// The normalized objectives of `points`, one point after another.
    fn flat<'p>(&self, points: impl IntoIterator<Item = &'p DesignPoint>) -> Vec<f64> {
        points
            .into_iter()
            .flat_map(|p| (0..self.senses.len()).map(move |j| self.norm(p, j)))
            .collect()
    }

    /// Whether `q` ε-dominates `p`, each given with its normalized
    /// objectives.
    fn prunes(
        &self,
        margin: f64,
        (q, qn): (&DesignPoint, &[f64]),
        (p, pn): (&DesignPoint, &[f64]),
    ) -> bool {
        q.index != p.index
            && (0..qn.len()).all(|j| !self.live[j] || pn[j] - qn[j] >= margin)
            && dominates(&q.objectives, &p.objectives, self.senses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipass_moe::{CostCategory, Line, Part, Process, StepCost, Test, YieldModel};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn flow(board_cost: f64, coverage: f64) -> Flow {
        let line = Line::builder(
            "t",
            Part::new("board", CostCategory::Substrate)
                .with_cost(StepCost::fixed(Money::new(board_cost))),
        )
        .process(
            Process::new("assemble")
                .with_cost(StepCost::fixed(Money::new(1.0)))
                .with_yield(YieldModel::percent(92.0)),
        )
        .test(
            Test::new("test")
                .with_cost(StepCost::fixed(Money::new(0.5)))
                .with_coverage(Probability::clamped(coverage)),
        )
        .build()
        .unwrap();
        Flow::new(line)
    }

    fn explorer() -> FlowExplorer {
        FlowExplorer::new(flow(2.0, 0.95).compiled().unwrap())
            .axis(FlowAxis::cost_scale("board", Levels::linspace(0.5, 1.5, 8)))
            .axis(FlowAxis::coverage("test", Levels::linspace(0.9, 0.999, 8)))
            .objective(Objective::minimize(Metric::FinalCostPerShipped))
            .objective(Objective::minimize(Metric::EscapeRate))
            .with_executor(Executor::new(2))
    }

    #[test]
    fn screen_matches_patched_evaluation() {
        let exploration = explorer().explore(&SamplerSpec::Grid).unwrap();
        assert_eq!(exploration.points.len(), 64);
        // Spot-check one point against a hand-patched evaluation.
        let p = &exploration.points[13];
        let compiled = flow(2.0, 0.95).compiled().unwrap();
        let mut patch = compiled.patch();
        patch.scale_cost("board", p.coords[0]).unwrap();
        patch
            .set_coverage("test", Probability::clamped(p.coords[1]))
            .unwrap();
        let report = patch.analyze().unwrap();
        assert_eq!(p.objectives[0], report.final_cost_per_shipped().units());
        assert_eq!(p.objectives[1], report.escape_rate());
    }

    #[test]
    fn frontier_trades_cost_against_escapes() {
        let exploration = explorer().explore(&SamplerSpec::Grid).unwrap();
        let frontier = &exploration.frontier;
        // All frontier members sit at the cheapest board (scale 0.5):
        // board cost hurts cost and never helps escapes.
        for m in frontier.members() {
            assert_eq!(m.coords[0], 0.5);
        }
        // Coverage trades: the frontier spans multiple coverage levels.
        let coverages: std::collections::BTreeSet<u64> = frontier
            .members()
            .iter()
            .map(|m| (m.coords[1] * 1e6) as u64)
            .collect();
        assert!(coverages.len() >= 4, "{coverages:?}");
        // And equals the O(frontier)-memory reduction.
        assert_eq!(
            frontier,
            &explorer().screen_frontier(&SamplerSpec::Grid).unwrap()
        );
    }

    #[test]
    fn volume_and_custom_axes_patch_run_economics() {
        let flow = flow(2.0, 0.95)
            .with_nre(Money::new(1_000.0))
            .with_volume(10);
        let explorer = FlowExplorer::new(flow.compiled().unwrap())
            .axis(FlowAxis::volume(Levels::explicit([10.0, 10_000.0])))
            .axis(FlowAxis::custom(
                "board premium",
                Levels::explicit([1.0, 3.0]),
                |x, patch| {
                    patch.scale_cost("board", x)?;
                    Ok(())
                },
            ))
            .objective(Objective::minimize(Metric::FinalCostPerShipped))
            .with_executor(Executor::serial());
        let exploration = explorer.explore(&SamplerSpec::Grid).unwrap();
        // Higher volume amortizes NRE away; premium raises cost.
        let cost = |i: usize| exploration.points[i].objectives[0];
        assert!(cost(2) < cost(0), "volume should amortize NRE");
        assert!(cost(1) > cost(0), "premium should raise cost");
    }

    #[test]
    fn misconfigured_explorers_are_rejected() {
        let compiled = flow(2.0, 0.95).compiled().unwrap();
        let bare = FlowExplorer::new(compiled.clone());
        assert!(matches!(
            bare.explore(&SamplerSpec::Grid),
            Err(ExploreError::NoAxes)
        ));
        let no_objectives = FlowExplorer::new(compiled.clone())
            .axis(FlowAxis::volume(Levels::linspace(1.0, 2.0, 2)));
        assert!(matches!(
            no_objectives.explore(&SamplerSpec::Grid),
            Err(ExploreError::NoObjectives)
        ));
        let bad_probability = FlowExplorer::new(compiled.clone())
            .axis(FlowAxis::coverage("test", Levels::linspace(0.5, 1.5, 4)))
            .objective(Objective::minimize(Metric::FinalCostPerShipped));
        assert!(matches!(
            bad_probability.explore(&SamplerSpec::Grid),
            Err(ExploreError::ProbabilityAxisOutOfRange { .. })
        ));
        // NaN levels would reach `Probability::clamped` / `Money::new`
        // and panic there.
        for axis in [
            FlowAxis::coverage("test", Levels::explicit([0.9, f64::NAN, 0.99])),
            FlowAxis::cost_scale("board", Levels::explicit([0.5, f64::NAN, 1.5])),
        ] {
            let nan_level = FlowExplorer::new(compiled.clone())
                .axis(axis)
                .objective(Objective::minimize(Metric::FinalCostPerShipped));
            assert!(matches!(
                nan_level.explore(&SamplerSpec::Grid),
                Err(ExploreError::InvalidAxisRange { .. })
            ));
        }
        let ghost_slot = FlowExplorer::new(compiled)
            .axis(FlowAxis::cost_scale("ghost", Levels::linspace(0.5, 1.5, 4)))
            .objective(Objective::minimize(Metric::FinalCostPerShipped));
        assert!(matches!(
            ghost_slot.explore(&SamplerSpec::Grid),
            Err(ExploreError::Flow(FlowError::UnknownPatchSlot { .. }))
        ));
    }

    #[test]
    fn refine_promotes_a_thin_band_and_confirms_it() {
        let options = RefineOptions {
            margin: 0.05,
            mc_units: 4_000,
            seed: 11,
            stop: None,
        };
        let refined = explorer()
            .refine(&SamplerSpec::Grid, &options, |coords| {
                // Rebuild the line with the point's parameters — scale
                // the board cost, set the coverage.
                Ok(flow(2.0 * coords[0], coords[1]))
            })
            .unwrap();
        // The band is thin but covers the frontier.
        assert!(
            refined.promoted_fraction() <= 0.30,
            "{}",
            refined.promoted_fraction()
        );
        let frontier_indices = refined.frontier().indices();
        assert!(frontier_indices
            .iter()
            .all(|i| refined.promoted.contains(i)));
        assert_eq!(refined.confirmations.len(), refined.promoted.len());
        // MC confirms the analytic screen within Monte Carlo noise.
        for c in &refined.confirmations {
            let analytic = &refined.screen.points[c.index].objectives;
            let rel = (c.objectives[0] - analytic[0]).abs() / analytic[0];
            assert!(
                rel < 0.05,
                "point {}: MC {} vs analytic {}",
                c.index,
                c.objectives[0],
                analytic[0]
            );
        }
        // No early stopping: every promoted point paid the full budget.
        assert!(refined
            .confirmations
            .iter()
            .all(|c| c.units_run == 4_000.0 && !c.stopped_early));
    }

    #[test]
    fn refine_refuses_a_confirmation_whose_costs_overflow() {
        // The rebuilt line books 1e308 on the board and on the process,
        // each valid on its own; per unit they sum past f64::MAX.
        let overflowing = |_: &[f64]| {
            let line = Line::builder(
                "t",
                Part::new("board", CostCategory::Substrate)
                    .with_cost(StepCost::fixed(Money::new(1e308))),
            )
            .process(
                Process::new("assemble")
                    .with_cost(StepCost::fixed(Money::new(1e308)))
                    .with_yield(YieldModel::percent(92.0)),
            )
            .build()?;
            Ok(Flow::new(line))
        };
        let options = RefineOptions {
            mc_units: 100,
            ..RefineOptions::default()
        };
        let err = explorer()
            .refine(&SamplerSpec::Grid, &options, overflowing)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::Flow(FlowError::NonFiniteCost { ref flow }) if flow == "t"
            ),
            "{err}"
        );
    }

    #[test]
    fn nan_objectives_are_refused() {
        let objectives = [
            Objective::minimize(Metric::FinalCostPerShipped),
            Objective::minimize(Metric::EscapeRate),
        ];
        assert_eq!(
            checked_objectives(3, vec![1.0, 0.5], &objectives).unwrap(),
            [1.0, 0.5]
        );
        let err = checked_objectives(3, vec![1.0, f64::NAN], &objectives).unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::NanObjective { point: 3, ref objective } if objective == "escape rate"
            ),
            "{err}"
        );
    }

    #[test]
    fn profiler_records_screen_and_confirm_spans() {
        let profiler = ipass_obs::Profiler::default();
        explorer()
            .with_profiler(profiler.clone())
            .refine(&SamplerSpec::Grid, &RefineOptions::default(), |coords| {
                Ok(flow(2.0 * coords[0], coords[1]))
            })
            .unwrap();
        let trace = profiler.trace();
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["screen", "promote", "confirm"]);
        assert_eq!(trace.spans[0].count, 1);
    }

    /// The all-pairs scan: every screened point is tried as a pruner.
    fn promote_all_pairs(screen: &Exploration, margin: f64) -> Vec<usize> {
        promote_against(screen, margin, &screen.points)
    }

    /// Objective values whose every range stays finite: coarse levels,
    /// so that exact ties occur, plus −0, a subnormal and ±1e300.
    fn finite_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            (0u8..5).prop_map(f64::from),
            (0u8..5).prop_map(f64::from),
            -1e3f64..1e3,
            Just(-0.0),
            Just(5e-324),
            Just(1e300),
            Just(-1e300),
        ]
    }

    /// Finite values with one in three making a value or a range
    /// non-finite, so that clouds keep some live objectives.
    fn extreme_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            finite_value(),
            finite_value(),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(1.7e308),
            Just(-1.7e308),
        ]
    }

    /// A screen over the first `k` values of each row, objective `j`
    /// maximized where `maximize[j]`; objective `constant` (if any)
    /// reads the same value at every point.
    fn cloud(
        rows: &[(f64, f64, f64)],
        k: usize,
        maximize: &[bool],
        constant: usize,
    ) -> Exploration {
        let senses: Vec<Sense> = maximize[..k]
            .iter()
            .map(|&m| if m { Sense::Maximize } else { Sense::Minimize })
            .collect();
        let points: Vec<DesignPoint> = rows
            .iter()
            .enumerate()
            .map(|(index, &(a, b, c))| {
                let mut objectives = vec![a, b, c];
                objectives.truncate(k);
                if let Some(v) = objectives.get_mut(constant) {
                    *v = 2.0;
                }
                DesignPoint {
                    index,
                    coords: vec![index as f64],
                    objectives,
                }
            })
            .collect();
        Exploration {
            axes: vec!["index".into()],
            objectives: (0..k).map(|j| format!("objective {j}")).collect(),
            frontier: ParetoFrontier::extract(senses.clone(), points.iter().cloned()),
            senses,
            points,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn frontier_scan_promotes_what_the_all_pairs_scan_does(
            rows in vec((finite_value(), finite_value(), finite_value()), 1..48),
            k in 1usize..4,
            maximize in vec(proptest::bool::ANY, 3..4),
            constant in 0usize..6,
            random_margin in 0.0f64..1.0,
        ) {
            let screen = cloud(&rows, k, &maximize, constant);
            for margin in [0.0, 0.05, 1.0, random_margin] {
                prop_assert_eq!(
                    promote(&screen, margin),
                    promote_all_pairs(&screen, margin),
                    "margin {}",
                    margin
                );
            }
        }

        #[test]
        fn frontier_scan_never_promotes_fewer_on_non_finite_screens(
            rows in vec((extreme_value(), extreme_value(), extreme_value()), 1..16),
            k in 1usize..4,
            maximize in vec(proptest::bool::ANY, 3..4),
            constant in 0usize..6,
            random_margin in 0.0f64..1.0,
        ) {
            let screen = cloud(&rows, k, &maximize, constant);
            for margin in [0.0, 0.05, 1.0, random_margin] {
                let promoted = promote(&screen, margin);
                let oracle = promote_all_pairs(&screen, margin);
                prop_assert!(
                    oracle.iter().all(|i| promoted.contains(i)),
                    "margin {margin}: {promoted:?} misses some of {oracle:?}"
                );
            }
        }
    }
}
