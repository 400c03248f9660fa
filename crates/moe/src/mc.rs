//! Seeded Monte Carlo engine: routes individual units through the flow,
//! the way the paper describes MOE ("yield figures are translated into
//! faults using Monte Carlo simulation").
//!
//! The engine runs on the [`ipass_sim`] substrate: every started unit
//! draws from its own counter-based random stream and units fold into
//! chunk accumulators that merge in fixed order, so a seeded run
//! produces **bit-identical** results for any [`SimOptions::threads`]
//! value — threads are a pure performance knob, not a semantic one.
//!
//! Since PR 2 the hot path no longer interprets the nested [`Line`]
//! object graph per unit: the line is compiled once into a flat
//! [`RoutingProgram`](crate::compile::RoutingProgram) (see
//! [`crate::compile`]), and since PR 6 sub-line-free programs are
//! evaluated by the batched lane kernel (see [`crate::lane`]) — a lane
//! of [`SimOptions::lane_width`] units per op, bit-identical to the
//! scalar walk for every width. The original interpreter is kept below,
//! exposed through [`simulate_line_reference`], as the bit-exactness
//! oracle the property tests pin both kernels against.

use crate::compile::{RoutingProgram, Totals, NCAT};
use crate::cost::CostCategory;
use crate::error::FlowError;
use crate::labels::{self, InputLabels, LineLabels, StageLabels};
use crate::lane::LaneSampler;
use crate::line::Line;
use crate::part::AttachInput;
use crate::report::{CostFigures, CostReport};
use crate::stage::{FailAction, Stage};
use ipass_obs::{Probe, Profiler, RunStats};
use ipass_sim::{BinomialTally, Executor, RunOptions, Sampler, SimRng, StopRule};
use ipass_units::Money;

/// Default retry budget when a nested line must deliver one passing
/// unit (see [`SimOptions::subassembly_retry_budget`]).
pub const DEFAULT_SUBASSEMBLY_RETRY_BUDGET: u32 = 100_000;

/// Default lane width of the batched Monte Carlo kernel (see
/// [`SimOptions::lane_width`]). Width 64 is the widest kernel — eight
/// `zmm` register groups on AVX-512 builds — and measures fastest
/// across flow shapes; narrower lanes cost nothing to request on small
/// runs because partial lanes fall back to the scalar tail anyway.
pub const DEFAULT_LANE_WIDTH: usize = 64;

/// Options for a Monte Carlo run.
///
/// # Examples
///
/// ```
/// use ipass_moe::SimOptions;
///
/// let opts = SimOptions::new(50_000).with_seed(7).with_threads(2);
/// assert_eq!(opts.units, 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Number of carrier units to start.
    pub units: u64,
    /// RNG seed; equal seeds reproduce results for *any* thread count.
    pub seed: u64,
    /// Worker threads — a pure performance knob; results are
    /// bit-identical regardless.
    pub threads: usize,
    /// Retry budget when a nested line must deliver one passing unit;
    /// exhausting it fails the run with
    /// [`FlowError::SubassemblyStarved`].
    pub subassembly_retry_budget: u32,
    /// Lane width of the batched kernel — how many units the kernel
    /// routes per op on sub-line-free programs. Rounded down to the
    /// nearest supported width (powers of two up to 64; values below 1
    /// mean the scalar walk). Like `threads`, a pure performance knob:
    /// results are bit-identical for every width.
    pub lane_width: usize,
    /// Deterministic probe counting ([`Probe::OFF`] by default). When
    /// on, the run's [`SimSummary::stats`] snapshot carries RNG draw,
    /// op-by-kind and lane-occupancy counters, chunk-folded exactly
    /// like the results — bit-identical for any thread count. When off,
    /// every probe site is a dead predicted-false branch; the hot path
    /// pays nothing.
    pub probe: Probe,
}

impl SimOptions {
    /// Create options for `units` started units (seed 0, single thread,
    /// default lane width).
    pub fn new(units: u64) -> SimOptions {
        SimOptions {
            units,
            seed: 0,
            threads: 1,
            subassembly_retry_budget: DEFAULT_SUBASSEMBLY_RETRY_BUDGET,
            lane_width: DEFAULT_LANE_WIDTH,
            probe: Probe::OFF,
        }
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> SimOptions {
        self.seed = seed;
        self
    }

    /// Set the number of worker threads (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> SimOptions {
        self.threads = threads.max(1);
        self
    }

    /// Set the subassembly retry budget.
    ///
    /// A budget of zero is rejected with
    /// [`FlowError::ZeroRetryBudget`] when the simulation runs — it is
    /// never silently bumped.
    pub fn with_retry_budget(mut self, budget: u32) -> SimOptions {
        self.subassembly_retry_budget = budget;
        self
    }

    /// Set the batched kernel's lane width (rounded down to the nearest
    /// supported width by [`effective_lane_width`]; `1` — or `0` — runs
    /// the scalar walk).
    ///
    /// [`effective_lane_width`]: crate::effective_lane_width
    pub fn with_lane_width(mut self, width: usize) -> SimOptions {
        self.lane_width = width;
        self
    }

    /// Enable (or disable) deterministic probe counting; see
    /// [`SimOptions::probe`].
    pub fn with_probe(mut self, probe: Probe) -> SimOptions {
        self.probe = probe;
        self
    }
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions::new(100_000)
    }
}

/// Extra Monte Carlo statistics beyond the [`CostReport`].
///
/// [`CostReport`]: crate::CostReport
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// The cost report assembled from the simulated counts.
    pub report: CostReport,
    /// Units scrapped anywhere in the flow (including subassemblies).
    pub scrapped: f64,
    /// Total rework attempts performed.
    pub rework_attempts: u64,
    /// Units produced by nested lines (consumed + scrapped).
    pub sub_units_built: u64,
    /// Whether an early-stopping rule ended the run before the full
    /// unit budget.
    pub stopped_early: bool,
    /// Deterministic probe counters — `Some` exactly when the run was
    /// probed ([`SimOptions::probe`]). Bit-identical for any thread
    /// count; the portable core ([`RunStats::invariant_core`]) is
    /// additionally invariant across lane widths.
    pub stats: Option<RunStats>,
}

/// Shipped-fraction confidence half width used by all samplers'
/// early-stopping hooks (the lane kernel, the interpreter oracle).
///
/// Wilson, not Wald: the Wald width is 0 while every unit so far
/// shipped (or scrapped), which would vacuously satisfy any stop rule
/// on a high-yield line.
pub(crate) fn shipped_half_width(acc: &Totals, z: f64) -> f64 {
    BinomialTally::from_f64_counts(acc.attempted as f64, acc.shipped).wilson_half_width(z)
}

/// Run the Monte Carlo simulation for a validated line (test-only
/// convenience: production callers go through the [`Flow`]'s cached
/// program and [`simulate_program`]).
///
/// [`Flow`]: crate::Flow
#[cfg(test)]
pub(crate) fn simulate_line(
    line: &Line,
    nre: Money,
    volume: u64,
    options: &SimOptions,
) -> Result<SimSummary, FlowError> {
    line.validate()?;
    let program = RoutingProgram::compile(line);
    simulate_program(&program, nre, volume, options, None)
}

/// Like [`simulate_line`], stopping early once the shipped-fraction
/// confidence interval is narrower than the rule's target.
#[cfg(test)]
pub(crate) fn simulate_line_adaptive(
    line: &Line,
    nre: Money,
    volume: u64,
    options: &SimOptions,
    stop: StopRule,
) -> Result<SimSummary, FlowError> {
    line.validate()?;
    let program = RoutingProgram::compile(line);
    simulate_program(&program, nre, volume, options, Some(stop))
}

/// Reject option combinations with no sound interpretation. Checked at
/// the run entry points (not only in the builder): the fields are
/// public, so builder validation alone could be bypassed with
/// struct-update syntax.
fn validate_options(options: &SimOptions) -> Result<(), FlowError> {
    if options.units == 0 {
        return Err(FlowError::NoUnits);
    }
    if options.subassembly_retry_budget == 0 {
        return Err(FlowError::ZeroRetryBudget);
    }
    Ok(())
}

/// Run a pre-compiled routing program (the cached-[`Flow`] hot path).
///
/// [`Flow`]: crate::Flow
pub(crate) fn simulate_program(
    program: &RoutingProgram,
    nre: Money,
    volume: u64,
    options: &SimOptions,
    stop: Option<StopRule>,
) -> Result<SimSummary, FlowError> {
    simulate_program_profiled(program, nre, volume, options, stop, None)
}

/// [`simulate_program`] with an optional wall-clock profiler: the
/// executor records one `"chunk"` span per completed chunk. Profiling
/// never touches the deterministic plane — the summary (stats included)
/// is bit-identical with and without it.
pub(crate) fn simulate_program_profiled(
    program: &RoutingProgram,
    nre: Money,
    volume: u64,
    options: &SimOptions,
    stop: Option<StopRule>,
    profiler: Option<&Profiler>,
) -> Result<SimSummary, FlowError> {
    validate_options(options)?;
    let sampler = LaneSampler::new(
        program,
        options.subassembly_retry_budget,
        options.lane_width,
        options.probe,
    );
    let executor = Executor::new(options.threads);
    let run_options = RunOptions { stop };
    let outcome = match profiler {
        Some(p) => executor.run_traced(&sampler, options.units, options.seed, &run_options, p)?,
        None => executor.run_with(&sampler, options.units, options.seed, &run_options)?,
    };
    summarize(
        program.line_name(),
        program.names(),
        outcome.acc,
        nre,
        volume,
        outcome.stopped_early,
    )
}

/// Assemble the [`SimSummary`] from a merged accumulator (shared by the
/// kernel and the interpreter oracle, so their outputs are built
/// identically). A run that ships no unit is refused with
/// [`FlowError::NothingShipped`]; [`CostFigures::try_from_parts`]
/// refuses costs that overflow.
fn summarize(
    line_name: &str,
    names: &[String],
    totals: Totals,
    nre: Money,
    volume: u64,
    stopped_early: bool,
) -> Result<SimSummary, FlowError> {
    let started = totals.attempted as f64;
    if totals.shipped <= 0.0 {
        return Err(FlowError::NothingShipped {
            flow: line_name.to_owned(),
        });
    }
    let figures = CostFigures::try_from_parts(
        line_name,
        started,
        totals.shipped,
        totals.good_shipped,
        totals.embodied + totals.scrap_spend,
        totals.embodied,
        std::array::from_fn(|i| totals.embodied_by_cat[i] + totals.scrap_by_cat[i]),
        nre,
        volume,
    )?;
    let report = CostReport::from_parts(
        line_name.to_owned(),
        figures,
        labels::pareto(names, &totals.defects, started),
    );
    let stats = totals.probe.then(|| {
        let mut stats = RunStats::from_engine(totals.attempted, &totals.obs);
        stats.rework_attempts = totals.rework_attempts;
        stats.sub_units_built = totals.sub_units_built;
        stats
    });
    Ok(SimSummary {
        report,
        scrapped: totals.scrapped,
        rework_attempts: totals.rework_attempts,
        sub_units_built: totals.sub_units_built,
        stopped_early,
        stats,
    })
}

// ---------------------------------------------------------------------
// The interpreter oracle: the original (PR 1) object-graph engine, kept
// verbatim so property tests can pin the compiled kernel's results —
// every draw, every floating-point sum — against it.
// ---------------------------------------------------------------------

/// The production line as an [`ipass_sim`] sampler: one sample routes
/// one carrier unit through the (possibly nested) line object graph.
struct LineSampler<'a> {
    line: &'a Line,
    labels: &'a LineLabels,
    n_labels: usize,
    retry_budget: u32,
}

impl Sampler for LineSampler<'_> {
    type Acc = Totals;
    type Error = FlowError;

    fn make_acc(&self) -> Totals {
        Totals::new(self.n_labels)
    }

    fn sample(&self, _unit: u64, rng: &mut SimRng, totals: &mut Totals) -> Result<(), FlowError> {
        totals.attempted += 1;
        if let Some(unit) = produce_unit(self.line, self.labels, rng, totals, self.retry_budget)? {
            totals.ship(unit.cost, &unit.by_cat, unit.defective);
        }
        Ok(())
    }

    fn merge(&self, into: &mut Totals, from: Totals) {
        into.merge(&from);
    }

    fn ci_half_width(&self, acc: &Totals, z: f64) -> Option<f64> {
        Some(shipped_half_width(acc, z))
    }
}

/// Reference implementation: simulate by interpreting the line object
/// graph per unit (the pre-compilation engine).
///
/// Kept as the bit-exactness oracle for the compiled kernel; see
/// `crates/moe/tests/kernel_oracle.rs`. Slower than [`Flow::simulate`]
/// — do not use it for production runs.
///
/// [`Flow::simulate`]: crate::Flow::simulate
///
/// # Errors
///
/// Same contract as [`Flow::simulate`](crate::Flow::simulate).
#[doc(hidden)]
pub fn simulate_line_reference(
    line: &Line,
    nre: Money,
    volume: u64,
    options: &SimOptions,
    stop: Option<StopRule>,
) -> Result<SimSummary, FlowError> {
    line.validate()?;
    validate_options(options)?;
    let mut names = Vec::new();
    let line_labels = labels::index_line(line, "", &mut names);
    let sampler = LineSampler {
        line,
        labels: &line_labels,
        n_labels: names.len(),
        retry_budget: options.subassembly_retry_budget,
    };
    let outcome = Executor::new(options.threads).run_with(
        &sampler,
        options.units,
        options.seed,
        &RunOptions { stop },
    )?;
    summarize(
        line.name(),
        &names,
        outcome.acc,
        nre,
        volume,
        outcome.stopped_early,
    )
}

#[derive(Debug, Clone)]
struct Unit {
    cost: f64,
    by_cat: [f64; NCAT],
    defective: bool,
}

impl Unit {
    fn add_cost(&mut self, amount: f64, category: CostCategory) {
        self.cost += amount;
        self.by_cat[category.index()] += amount;
    }
}

/// Route one unit through `line`. `Ok(None)` means the unit was scrapped
/// (already booked into `totals`).
fn produce_unit(
    line: &Line,
    line_labels: &LineLabels,
    rng: &mut SimRng,
    totals: &mut Totals,
    retry_budget: u32,
) -> Result<Option<Unit>, FlowError> {
    let carrier = line.carrier();
    let mut unit = Unit {
        cost: 0.0,
        by_cat: [0.0; NCAT],
        defective: false,
    };
    unit.add_cost(carrier.cost().total().units(), carrier.category());
    if !rng.bernoulli(carrier.incoming_yield().value().value()) {
        unit.defective = true;
        totals.defects[line_labels.carrier] += 1.0;
    }

    for (stage, stage_labels) in line.stages().iter().zip(line_labels.stages.iter()) {
        match (stage, stage_labels) {
            (Stage::Process(p), StageLabels::Process(label)) => {
                unit.add_cost(p.cost().total().units(), p.category());
                if !unit.defective && !rng.bernoulli(p.process_yield().value().value()) {
                    unit.defective = true;
                    totals.defects[*label] += 1.0;
                }
            }
            (Stage::Attach(a), StageLabels::Attach { op, inputs }) => {
                unit.add_cost(a.cost().total().units(), a.category());
                if !unit.defective && !rng.bernoulli(a.attach_yield().value().value()) {
                    unit.defective = true;
                    totals.defects[*op] += 1.0;
                }
                for ((input, qty), input_labels) in a.inputs().iter().zip(inputs.iter()) {
                    match (input, input_labels) {
                        (AttachInput::Part(part), InputLabels::Part(label)) => {
                            let q = *qty as f64;
                            unit.add_cost(q * part.cost().total().units(), part.category());
                            if !unit.defective {
                                let all_good = part.incoming_yield().value().value().powf(q);
                                if !rng.bernoulli(all_good) {
                                    unit.defective = true;
                                    totals.defects[*label] += 1.0;
                                }
                            }
                        }
                        (AttachInput::Line(sub), InputLabels::Line(sub_labels)) => {
                            for _ in 0..*qty {
                                let sub_unit =
                                    produce_passing(sub, sub_labels, rng, totals, retry_budget)?;
                                unit.cost += sub_unit.cost;
                                for (a_, b) in unit.by_cat.iter_mut().zip(sub_unit.by_cat.iter()) {
                                    *a_ += *b;
                                }
                                if sub_unit.defective {
                                    unit.defective = true;
                                    // The escape was already attributed inside
                                    // the sub-line's own labels.
                                }
                            }
                        }
                        _ => unreachable!("label map mismatch"),
                    }
                }
            }
            (Stage::Test(t), StageLabels::Test) => {
                unit.add_cost(t.cost().total().units(), CostCategory::Test);
                if unit.defective && rng.bernoulli(t.coverage().value()) {
                    // Caught.
                    match t.fail_action() {
                        FailAction::Scrap => {
                            totals.scrap(unit.cost, &unit.by_cat);
                            return Ok(None);
                        }
                        FailAction::Rework(rework) => {
                            let mut recovered = false;
                            for _ in 0..rework.max_attempts {
                                totals.rework_attempts += 1;
                                unit.add_cost(rework.cost.total().units(), CostCategory::Other);
                                unit.add_cost(t.cost().total().units(), CostCategory::Test);
                                if rng.bernoulli(rework.success.value()) {
                                    unit.defective = false;
                                    recovered = true;
                                    break;
                                }
                                if !rng.bernoulli(t.coverage().value()) {
                                    // Escaped on re-test: continues defective.
                                    recovered = true;
                                    break;
                                }
                            }
                            if !recovered {
                                totals.scrap(unit.cost, &unit.by_cat);
                                return Ok(None);
                            }
                        }
                    }
                }
            }
            _ => unreachable!("label map mismatch"),
        }
    }
    Ok(Some(unit))
}

/// Keep producing sub-units until one passes the nested line.
fn produce_passing(
    line: &Line,
    line_labels: &LineLabels,
    rng: &mut SimRng,
    totals: &mut Totals,
    retry_budget: u32,
) -> Result<Unit, FlowError> {
    for _ in 0..retry_budget {
        totals.sub_units_built += 1;
        if let Some(unit) = produce_unit(line, line_labels, rng, totals, retry_budget)? {
            return Ok(unit);
        }
    }
    Err(FlowError::SubassemblyStarved {
        line: line.name().to_owned(),
        attempts: retry_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StepCost;
    use crate::part::Part;
    use crate::stage::{Attach, Process, Test};
    use crate::yield_model::YieldModel;
    use ipass_units::Probability;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn simple_line() -> Line {
        Line::builder(
            "l",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(2.0))),
        )
        .process(
            Process::new("p")
                .with_cost(StepCost::fixed(Money::new(1.0)))
                .with_yield(YieldModel::flat(p(0.9))),
        )
        .test(
            Test::new("t")
                .with_cost(StepCost::fixed(Money::new(0.5)))
                .with_coverage(p(0.99)),
        )
        .build()
        .unwrap()
    }

    #[test]
    fn zero_units_rejected() {
        let err = simulate_line(&simple_line(), Money::ZERO, 1, &SimOptions::new(0)).unwrap_err();
        assert_eq!(err, FlowError::NoUnits);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let opts = SimOptions::new(20_000).with_seed(42);
        let a = simulate_line(&simple_line(), Money::ZERO, 1, &opts).unwrap();
        let b = simulate_line(&simple_line(), Money::ZERO, 1, &opts).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.scrapped, b.scrapped);
    }

    #[test]
    fn thread_count_is_a_pure_performance_knob() {
        let line = simple_line();
        let single = simulate_line(
            &line,
            Money::ZERO,
            1,
            &SimOptions::new(30_000).with_seed(42).with_threads(1),
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let multi = simulate_line(
                &line,
                Money::ZERO,
                1,
                &SimOptions::new(30_000).with_seed(42).with_threads(threads),
            )
            .unwrap();
            assert_eq!(single, multi, "threads = {threads}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate_line(
            &simple_line(),
            Money::ZERO,
            1,
            &SimOptions::new(20_000).with_seed(1),
        )
        .unwrap();
        let b = simulate_line(
            &simple_line(),
            Money::ZERO,
            1,
            &SimOptions::new(20_000).with_seed(2),
        )
        .unwrap();
        assert_ne!(a.report.shipped(), b.report.shipped());
    }

    #[test]
    fn kernel_matches_interpreter_on_simple_line() {
        let line = simple_line();
        let opts = SimOptions::new(50_000).with_seed(17);
        let kernel = simulate_line(&line, Money::new(10.0), 100, &opts).unwrap();
        let oracle = simulate_line_reference(&line, Money::new(10.0), 100, &opts, None).unwrap();
        assert_eq!(kernel, oracle);
    }

    #[test]
    fn mc_matches_analytic_on_simple_line() {
        let line = simple_line();
        let analytic = crate::analytic::analyze_line_reference(&line, Money::ZERO, 1).unwrap();
        let mc = simulate_line(
            &line,
            Money::ZERO,
            1,
            &SimOptions::new(200_000).with_seed(7),
        )
        .unwrap()
        .report;
        assert!((mc.shipped_fraction() - analytic.shipped_fraction()).abs() < 0.005);
        let rel = mc.final_cost_per_shipped().units() / analytic.final_cost_per_shipped().units();
        assert!((rel - 1.0).abs() < 0.01, "relative error {rel}");
    }

    #[test]
    fn mc_matches_analytic_with_subassembly() {
        let sub = Line::builder(
            "sub",
            Part::new("blank", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(4.0))),
        )
        .process(Process::new("fab").with_yield(YieldModel::flat(p(0.6))))
        .test(Test::new("probe"))
        .build()
        .unwrap();
        let line = Line::builder("main", Part::new("pcb", CostCategory::Substrate))
            .attach(Attach::new("join").input(sub, 2))
            .build()
            .unwrap();
        let analytic = crate::analytic::analyze_line_reference(&line, Money::ZERO, 1).unwrap();
        let sim = simulate_line(
            &line,
            Money::ZERO,
            1,
            &SimOptions::new(100_000).with_seed(3),
        )
        .unwrap();
        let mc = sim.report;
        assert!(sim.sub_units_built > 200_000); // retries needed at 60 % yield
        let rel = mc.final_cost_per_shipped().units() / analytic.final_cost_per_shipped().units();
        assert!((rel - 1.0).abs() < 0.01, "relative error {rel}");
        assert!(
            (mc.yield_loss_per_shipped().units() - analytic.yield_loss_per_shipped().units()).abs()
                < 0.2
        );
    }

    #[test]
    fn starved_subassembly_is_reported() {
        let sub = Line::builder("dead", Part::new("blank", CostCategory::Substrate))
            .process(Process::new("kill").with_yield(YieldModel::flat(p(0.0))))
            .test(Test::new("probe"))
            .build()
            .unwrap();
        let line = Line::builder("main", Part::new("pcb", CostCategory::Substrate))
            .attach(Attach::new("join").input(sub, 1))
            .build()
            .unwrap();
        let err = simulate_line(&line, Money::ZERO, 1, &SimOptions::new(10)).unwrap_err();
        assert!(matches!(err, FlowError::SubassemblyStarved { .. }));
    }

    #[test]
    fn retry_budget_is_configurable_and_reported() {
        // 60 % yield: 8 consecutive failures are rare but happen across
        // 10k units, so a budget of 8 starves; the generous default does
        // not.
        let sub = Line::builder("marginal", Part::new("blank", CostCategory::Substrate))
            .process(Process::new("fab").with_yield(YieldModel::flat(p(0.6))))
            .test(Test::new("probe"))
            .build()
            .unwrap();
        let line = Line::builder("main", Part::new("pcb", CostCategory::Substrate))
            .attach(Attach::new("join").input(sub, 1))
            .build()
            .unwrap();
        let tight = SimOptions::new(10_000).with_seed(1).with_retry_budget(8);
        match simulate_line(&line, Money::ZERO, 1, &tight) {
            Err(FlowError::SubassemblyStarved { line, attempts }) => {
                assert_eq!(line, "marginal");
                assert_eq!(attempts, 8);
            }
            other => panic!("expected starvation, got {other:?}"),
        }
        let roomy = SimOptions::new(10_000).with_seed(1);
        assert!(simulate_line(&line, Money::ZERO, 1, &roomy).is_ok());
    }

    #[test]
    fn zero_retry_budget_is_a_hard_error() {
        // Both engines reject a configured 0 instead of silently
        // bumping it to 1, even for flows without subassemblies.
        let opts = SimOptions::new(100).with_retry_budget(0);
        assert_eq!(
            simulate_line(&simple_line(), Money::ZERO, 1, &opts).unwrap_err(),
            FlowError::ZeroRetryBudget
        );
        assert_eq!(
            simulate_line_reference(&simple_line(), Money::ZERO, 1, &opts, None).unwrap_err(),
            FlowError::ZeroRetryBudget
        );
        // Struct-update bypass of the builder is caught too.
        let bypassed = SimOptions {
            subassembly_retry_budget: 0,
            ..SimOptions::new(100)
        };
        assert_eq!(
            simulate_line(&simple_line(), Money::ZERO, 1, &bypassed).unwrap_err(),
            FlowError::ZeroRetryBudget
        );
    }

    fn starving_line(sub_yield: f64) -> Line {
        let sub = Line::builder("feeder", Part::new("blank", CostCategory::Substrate))
            .process(Process::new("fab").with_yield(YieldModel::flat(p(sub_yield))))
            .test(Test::new("probe"))
            .build()
            .unwrap();
        Line::builder("main", Part::new("pcb", CostCategory::Substrate))
            .attach(Attach::new("join").input(sub, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn exhausted_budget_reports_line_and_attempts() {
        // The compiled kernel's starvation error carries the nested
        // line's name and the exact exhausted budget, and matches the
        // interpreter oracle's error bit for bit.
        let line = starving_line(0.5);
        let opts = SimOptions::new(5_000).with_seed(2).with_retry_budget(3);
        let kernel = simulate_line(&line, Money::ZERO, 1, &opts).unwrap_err();
        let oracle = simulate_line_reference(&line, Money::ZERO, 1, &opts, None).unwrap_err();
        assert_eq!(kernel, oracle);
        match kernel {
            FlowError::SubassemblyStarved { line, attempts } => {
                assert_eq!(line, "feeder");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected starvation, got {other:?}"),
        }
    }

    #[test]
    fn starvation_error_is_thread_deterministic() {
        // Which unit starves first is part of the deterministic
        // contract: the same error surfaces for every thread count.
        let line = starving_line(0.0);
        let opts = SimOptions::new(1_000).with_seed(5).with_retry_budget(4);
        let single = simulate_line(&line, Money::ZERO, 1, &opts).unwrap_err();
        for threads in [2, 4, 8] {
            let multi =
                simulate_line(&line, Money::ZERO, 1, &opts.with_threads(threads)).unwrap_err();
            assert_eq!(single, multi, "threads = {threads}");
        }
    }

    #[test]
    fn budget_of_one_is_honored_not_bumped() {
        // A budget of exactly 1 means "no retries": the first failed
        // sub-unit starves the consumer.
        let line = starving_line(0.5);
        let opts = SimOptions::new(1_000).with_seed(1).with_retry_budget(1);
        match simulate_line(&line, Money::ZERO, 1, &opts) {
            Err(FlowError::SubassemblyStarved { attempts, .. }) => assert_eq!(attempts, 1),
            other => panic!("expected starvation, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_stages_consume_no_draws_in_the_compiled_kernel() {
        // The draw-stream contract, pinned on the kernel itself: a
        // certain (p ≥ 1) costly stage and a free certain stage compile
        // to draw-free ops, so inserting them must not shift any later
        // draw — shipped counts and the defect pareto stay identical.
        let with_degenerates = Line::builder(
            "l",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(2.0))),
        )
        .process(Process::new("certain").with_cost(StepCost::fixed(Money::new(1.0))))
        .process(Process::new("free"))
        .process(
            Process::new("real")
                .with_cost(StepCost::fixed(Money::new(1.0)))
                .with_yield(YieldModel::flat(p(0.9))),
        )
        .test(Test::new("t").with_coverage(p(0.97)))
        .build()
        .unwrap();
        let without = Line::builder(
            "l",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(2.0))),
        )
        .process(
            Process::new("real")
                .with_cost(StepCost::fixed(Money::new(1.0)))
                .with_yield(YieldModel::flat(p(0.9))),
        )
        .test(Test::new("t").with_coverage(p(0.97)))
        .build()
        .unwrap();
        let opts = SimOptions::new(30_000).with_seed(13);
        let a = simulate_line(&with_degenerates, Money::ZERO, 1, &opts).unwrap();
        let b = simulate_line(&without, Money::ZERO, 1, &opts).unwrap();
        assert_eq!(a.report.shipped(), b.report.shipped());
        assert_eq!(a.report.good_shipped(), b.report.good_shipped());
        assert_eq!(a.scrapped, b.scrapped);
        assert_eq!(a.report.defect_pareto(), b.report.defect_pareto());
        // The certain stage's cost is booked deterministically on every
        // started unit.
        assert_eq!(
            a.report.total_spend().units(),
            b.report.total_spend().units() + 30_000.0
        );
    }

    #[test]
    fn condemn_op_consumes_no_draw_and_matches_oracle() {
        // A zero-yield stage compiles to Op::Condemn (no draw); the
        // coverage draw of the test is then taken for every unit. The
        // kernel must agree with the interpreter oracle bit for bit on
        // this degenerate path too.
        let line = Line::builder(
            "doomed",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(1.0))),
        )
        .process(Process::new("kill").with_yield(YieldModel::flat(p(0.0))))
        .test(Test::new("leaky").with_coverage(p(0.5)))
        .build()
        .unwrap();
        let opts = SimOptions::new(20_000).with_seed(3);
        let kernel = simulate_line(&line, Money::ZERO, 1, &opts).unwrap();
        let oracle = simulate_line_reference(&line, Money::ZERO, 1, &opts, None).unwrap();
        assert_eq!(kernel, oracle);
        // Every shipped unit is a coverage escape of the condemned mass.
        assert_eq!(kernel.report.good_shipped(), 0.0);
        assert!((kernel.report.shipped_fraction() - 0.5).abs() < 0.01);
    }

    #[test]
    fn adaptive_stops_early_and_is_deterministic() {
        let line = simple_line();
        let stop = StopRule::half_width_95(0.01);
        let opts = SimOptions::new(1_000_000).with_seed(9);
        let a = simulate_line_adaptive(&line, Money::ZERO, 1, &opts, stop).unwrap();
        assert!(a.stopped_early);
        assert!(
            a.report.started() < 1_000_000.0,
            "ran {}",
            a.report.started()
        );
        let b = simulate_line_adaptive(&line, Money::ZERO, 1, &opts.with_threads(4), stop).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn defect_pareto_tracks_sources() {
        let report = simulate_line(
            &simple_line(),
            Money::ZERO,
            1,
            &SimOptions::new(50_000).with_seed(5),
        )
        .unwrap()
        .report;
        let pareto = report.defect_pareto();
        assert_eq!(pareto.len(), 1);
        assert_eq!(pareto[0].0, "p");
        assert!((pareto[0].1 - 0.1).abs() < 0.01);
    }
}
