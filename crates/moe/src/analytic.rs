//! Closed-form expected-value engine.
//!
//! The population of in-flight units is propagated as a small set of
//! *cohorts* — groups of units with identical accumulated cost. Cost
//! and step ops transform cohorts in place; test ops split them
//! (pass / scrap / rework loop). The result is exact, including bounded
//! rework loops and nested subassembly lines.
//!
//! Since PR 3 the production path no longer interprets the nested
//! [`Line`] object graph per evaluation: [`analyze_program`] walks the
//! same flat [`RoutingProgram`] op vector the Monte Carlo kernel
//! executes, reusing every precomputed cost, yield and `p^q` fold (see
//! [`crate::compile`]). Cohort semantics per op:
//!
//! * [`Op::Cost`] — add cost to every cohort; no mass moves.
//! * [`Op::Condemn`] — add cost, move each cohort's entire good mass to
//!   defective, attribute it to the op's label.
//! * [`Op::Step`] — add cost, move `good · (1 − p_good)` to defective.
//! * [`Op::SubLine`] — evaluate the nested region to a per-started-unit
//!   outcome, fold `qty` consumed units' cost/yield into each cohort and
//!   scale the nested scrap/defect accounting by the implied sub-starts.
//! * [`Op::TestScrap`] / [`Op::TestRework`] — split each cohort into
//!   pass / caught; scrap the caught mass or push it through the
//!   bounded rework loop.
//!
//! The original `Line`-walking engine is kept below (exposed through
//! [`analyze_line_reference`]) as the oracle the property tests pin the
//! IR walker against, exactly like the Monte Carlo interpreter oracle.

use crate::compile::{Op, RoutingProgram, SlotKind};
use crate::cost::CostCategory;
use crate::dual::{Dual, DualReport, Gradient, NoSeeds, Scalar, SeedTable, TangentSeeds};
use crate::error::FlowError;
use crate::labels::{self, InputLabels, LineLabels, StageLabels};
use crate::line::Line;
use crate::part::AttachInput;
use crate::report::{CostFigures, CostReport};
use crate::stage::{FailAction, Stage};
use ipass_units::Money;

const NCAT: usize = CostCategory::COUNT;

/// A group of in-flight units with identical accumulated cost.
///
/// Generic over the [`Scalar`]: `f64` for plain evaluation, a dual for
/// forward-mode differentiation — same walk, same arithmetic sequence.
#[derive(Debug, Clone)]
struct Cohort<S = f64> {
    /// Mass of defect-free units.
    good: S,
    /// Mass of defective units.
    def: S,
    /// Accumulated cost per unit.
    cost: S,
    /// Accumulated cost per unit, by category.
    by_cat: [S; NCAT],
}

impl<S: Scalar> Cohort<S> {
    fn mass(&self) -> S {
        self.good + self.def
    }

    fn add_cost(&mut self, amount: S, category: CostCategory) {
        self.cost += amount;
        self.by_cat[category.index()] += amount;
    }

    fn add_costs(&mut self, amount: S, cats: &[S; NCAT]) {
        self.cost += amount;
        for (a, b) in self.by_cat.iter_mut().zip(cats.iter()) {
            *a += *b;
        }
    }
}

/// Scrap and defect accounting, normalized per started unit of the line
/// being evaluated.
#[derive(Debug, Clone)]
struct Acc<S = f64> {
    scrap_mass: S,
    scrap_spend: S,
    scrap_by_cat: [S; NCAT],
    /// Defect-source masses stay primal-only: no report derivative
    /// reads them (the [`Gradient`] exposes no per-label terms), and a
    /// K-wide tangent on every label update is the walk's single
    /// biggest slab of dead arithmetic. Accumulating `val()` performs
    /// the identical `f64` sequence, so the primal stays bit-exact.
    ///
    /// [`Gradient`]: crate::Gradient
    defects: Vec<f64>,
}

impl<S: Scalar> Acc<S> {
    fn new(n_labels: usize) -> Acc<S> {
        Acc {
            scrap_mass: S::ZERO,
            scrap_spend: S::ZERO,
            scrap_by_cat: [S::ZERO; NCAT],
            defects: vec![0.0; n_labels],
        }
    }

    fn scrap(&mut self, mass: S, cohort: &Cohort<S>) {
        self.scrap_mass += mass;
        self.scrap_spend += mass * cohort.cost;
        for (a, b) in self.scrap_by_cat.iter_mut().zip(cohort.by_cat.iter()) {
            *a += mass * *b;
        }
    }

    fn merge_scaled(&mut self, other: &Acc<S>, scale: S) {
        self.scrap_mass += other.scrap_mass * scale;
        self.scrap_spend += other.scrap_spend * scale;
        for (a, b) in self.scrap_by_cat.iter_mut().zip(other.scrap_by_cat.iter()) {
            *a += *b * scale;
        }
        for (a, b) in self.defects.iter_mut().zip(other.defects.iter()) {
            *a += *b * scale.val();
        }
    }
}

/// Per-started-unit outcome of a line.
#[derive(Debug, Clone)]
struct LineOutcome<S = f64> {
    shipped: S,
    good: S,
    embodied: S,
    by_cat: [S; NCAT],
}

/// The [`CostFigures`] of a per-started-unit outcome (shared by the IR
/// walker, patched programs, dual passes and the `Line`-walking oracle,
/// so their numbers are built identically).
///
/// A flow that ships at most 1e-12 of a started unit is refused with
/// [`FlowError::NothingShipped`]; [`CostFigures::try_from_parts`]
/// refuses costs that overflow. `line_name` is read only to name the
/// flow in these errors.
fn figures_from(
    line_name: &str,
    outcome: &LineOutcome,
    acc: &Acc,
    nre: Money,
    volume: u64,
) -> Result<CostFigures, FlowError> {
    if outcome.shipped <= 1e-12 {
        return Err(FlowError::NothingShipped {
            flow: line_name.to_owned(),
        });
    }
    CostFigures::try_from_parts(
        line_name,
        1.0,
        outcome.shipped,
        outcome.good,
        outcome.embodied + acc.scrap_spend,
        outcome.embodied,
        std::array::from_fn(|i| outcome.by_cat[i] + acc.scrap_by_cat[i]),
        nre,
        volume,
    )
}

/// Assemble the [`CostReport`] from a per-started-unit outcome: its
/// [`figures_from`] plus the flow's name and defect pareto.
fn report_from(
    line_name: &str,
    names: &[String],
    outcome: &LineOutcome,
    acc: &Acc,
    nre: Money,
    volume: u64,
) -> Result<CostReport, FlowError> {
    let figures = figures_from(line_name, outcome, acc, nre, volume)?;
    Ok(CostReport::from_parts(
        line_name.to_owned(),
        figures,
        labels::pareto(names, &acc.defects, 1.0),
    ))
}

/// Evaluate a compiled program analytically (the production path behind
/// [`Flow::analyze`](crate::Flow::analyze)).
pub(crate) fn analyze_program(
    program: &RoutingProgram,
    nre: Money,
    volume: u64,
) -> Result<CostReport, FlowError> {
    let (entry, len) = program.top_region();
    analyze_ops(
        program.ops(),
        entry,
        len,
        program.names(),
        program.line_name(),
        nre,
        volume,
    )
}

/// Evaluate one op vector analytically — the entry point shared by
/// [`analyze_program`] and patched programs (which substitute their own
/// op vector for the base program's).
pub(crate) fn analyze_ops(
    ops: &[Op],
    entry: u32,
    len: u32,
    names: &[String],
    line_name: &str,
    nre: Money,
    volume: u64,
) -> Result<CostReport, FlowError> {
    let (outcome, acc) = eval_region(ops, entry, len, names.len(), &NoSeeds);
    report_from(line_name, names, &outcome, &acc, nre, volume)
}

/// [`analyze_ops`] without the labels: the same walk, stopped at the
/// [`CostFigures`], so no name is formatted or cloned and no pareto is
/// sorted.
pub(crate) fn figures_of_ops(
    ops: &[Op],
    entry: u32,
    len: u32,
    n_labels: usize,
    line_name: &str,
    nre: Money,
    volume: u64,
) -> Result<CostFigures, FlowError> {
    let (outcome, acc) = eval_region(ops, entry, len, n_labels, &NoSeeds);
    figures_from(line_name, &outcome, &acc, nre, volume)
}

/// Propagate one unit of cohort mass through a region of the op vector;
/// returns the outcome normalized to one started unit. The math is the
/// oracle's [`eval_line`] expressed over precomputed ops.
///
/// Generic over the [`Scalar`]: `seeds` lifts each op parameter into
/// `S` — the identity for the production `f64` path ([`NoSeeds`]), a
/// tangent-seeding lookup for dual passes. Every branch guard compares
/// only the primal component, so control flow (and therefore the primal
/// arithmetic sequence) is identical across scalars.
fn eval_region<S: Scalar>(
    ops: &[Op],
    entry: u32,
    len: u32,
    n_labels: usize,
    seeds: &impl TangentSeeds<S>,
) -> (LineOutcome<S>, Acc<S>) {
    let mut acc = Acc::new(n_labels);
    let mut cohorts = vec![Cohort {
        good: S::ONE,
        def: S::ZERO,
        cost: S::ZERO,
        by_cat: [S::ZERO; NCAT],
    }];
    let mut scratch: Vec<Cohort<S>> = Vec::new();
    for (i, op) in ops[entry as usize..(entry + len) as usize]
        .iter()
        .enumerate()
    {
        let idx = entry as usize + i;
        match *op {
            Op::Cost { cost, cat } => {
                let cost = seeds.cost(idx, cost);
                for cohort in cohorts.iter_mut() {
                    cohort.add_cost(cost, cat);
                }
            }
            Op::Condemn { cost, cat, label } => {
                let cost = seeds.cost(idx, cost);
                for cohort in cohorts.iter_mut() {
                    cohort.add_cost(cost, cat);
                    let newly = cohort.good;
                    cohort.good -= newly;
                    cohort.def += newly;
                    acc.defects[label as usize] += newly.val();
                }
            }
            Op::Step {
                cost,
                cat,
                threshold: _,
                p_good,
                label,
            } => {
                let cost = seeds.cost(idx, cost);
                let p_good = seeds.p_good(idx, p_good);
                for cohort in cohorts.iter_mut() {
                    cohort.add_cost(cost, cat);
                    let newly = cohort.good * (S::ONE - p_good);
                    cohort.good -= newly;
                    cohort.def += newly;
                    acc.defects[label as usize] += newly.val();
                }
            }
            Op::SubLine {
                qty,
                entry,
                len,
                name: _,
            } => {
                let (sub_out, sub_acc) = eval_region(ops, entry, len, n_labels, seeds);
                if sub_out.shipped.val() <= 1e-12 {
                    // The subassembly ships nothing: every consumer is
                    // starved. Model as all-defective free input; the
                    // flow-level NothingShipped check reports the
                    // problem if it matters.
                    for cohort in cohorts.iter_mut() {
                        cohort.def += cohort.good;
                        cohort.good = S::ZERO;
                    }
                    continue;
                }
                let q = qty as f64;
                let unit_cost = sub_out.embodied / sub_out.shipped;
                let mut unit_cats = [S::ZERO; NCAT];
                for (u, s) in unit_cats.iter_mut().zip(sub_out.by_cat.iter()) {
                    *u = *s / sub_out.shipped;
                }
                for u in unit_cats.iter_mut() {
                    *u = u.scale(q);
                }
                let p_good = (sub_out.good / sub_out.shipped).powf(q);
                let mut alive = S::ZERO;
                for cohort in cohorts.iter() {
                    alive += cohort.mass();
                }
                // Sub-units consumed per started outer unit, and
                // sub-starts needed to produce them.
                let consumed = alive.scale(q);
                let sub_starts = consumed / sub_out.shipped;
                acc.merge_scaled(&sub_acc, sub_starts);
                for cohort in cohorts.iter_mut() {
                    cohort.add_costs(unit_cost.scale(q), &unit_cats);
                    let newly = cohort.good * (S::ONE - p_good);
                    cohort.good -= newly;
                    cohort.def += newly;
                    // Escapes of the sub-line are already counted in
                    // its own defect labels (scaled above), so no extra
                    // label here.
                }
            }
            Op::TestScrap { cost, coverage } => {
                let cost = seeds.cost(idx, cost);
                let coverage = seeds.coverage(idx, coverage);
                test_stage(&mut cohorts, &mut scratch, &mut acc, cost, coverage, None);
            }
            Op::TestRework {
                cost,
                coverage,
                rework_cost,
                success,
                max_attempts,
            } => {
                let cost = seeds.cost(idx, cost);
                let coverage = seeds.coverage(idx, coverage);
                test_stage(
                    &mut cohorts,
                    &mut scratch,
                    &mut acc,
                    cost,
                    coverage,
                    Some((rework_cost, success, max_attempts)),
                );
            }
        }
    }

    let mut outcome = LineOutcome {
        shipped: S::ZERO,
        good: S::ZERO,
        embodied: S::ZERO,
        by_cat: [S::ZERO; NCAT],
    };
    for cohort in &cohorts {
        outcome.shipped += cohort.mass();
        outcome.good += cohort.good;
        outcome.embodied += cohort.mass() * cohort.cost;
        for (o, c) in outcome.by_cat.iter_mut().zip(cohort.by_cat.iter()) {
            *o += cohort.mass() * *c;
        }
    }
    (outcome, acc)
}

/// Split every cohort at a test op: pass/escape mass continues, caught
/// mass scraps or loops through bounded rework — the oracle's test
/// branch, parameterized by the op's precomputed floats. The rework
/// parameters stay plain `f64`s: they carry no patch slot, hence no
/// tangent.
fn test_stage<S: Scalar>(
    cohorts: &mut Vec<Cohort<S>>,
    scratch: &mut Vec<Cohort<S>>,
    acc: &mut Acc<S>,
    t_cost: S,
    cov: S,
    rework: Option<(f64, f64, u32)>,
) {
    // `scratch` is the previous swap's spent cohort list — reusing it
    // keeps a multi-test walk at zero allocations per op, which the
    // K-wide dual cohorts (hundreds of bytes each) actually feel.
    scratch.clear();
    let next = scratch;
    next.reserve(cohorts.len() + 2);
    for mut cohort in cohorts.drain(..) {
        cohort.add_cost(t_cost, CostCategory::Test);
        let caught = cohort.def * cov;
        let escape = cohort.def - caught;
        let pass = Cohort {
            good: cohort.good,
            def: escape,
            cost: cohort.cost,
            by_cat: cohort.by_cat,
        };
        if pass.mass().val() > 0.0 {
            next.push(pass);
        }
        if caught.val() <= 0.0 {
            continue;
        }
        match rework {
            None => {
                let scrapped = Cohort {
                    good: S::ZERO,
                    def: caught,
                    cost: cohort.cost,
                    by_cat: cohort.by_cat,
                };
                acc.scrap(caught, &scrapped);
            }
            Some((r_cost, rho, max_attempts)) => {
                let r_cost = S::from_f64(r_cost);
                let rho = S::from_f64(rho);
                let mut current = caught;
                let mut unit = Cohort {
                    good: S::ZERO,
                    def: current,
                    cost: cohort.cost,
                    by_cat: cohort.by_cat,
                };
                for _ in 0..max_attempts {
                    if current.val() <= 0.0 {
                        break;
                    }
                    unit.add_cost(r_cost, CostCategory::Other);
                    unit.add_cost(t_cost, CostCategory::Test);
                    let fixed = current * rho;
                    let unfixed = current - fixed;
                    let escaped = unfixed * (S::ONE - cov);
                    let recaught = unfixed - escaped;
                    if (fixed + escaped).val() > 0.0 {
                        next.push(Cohort {
                            good: fixed,
                            def: escaped,
                            cost: unit.cost,
                            by_cat: unit.by_cat,
                        });
                    }
                    current = recaught;
                }
                if current.val() > 0.0 {
                    let scrapped = Cohort {
                        good: S::ZERO,
                        def: current,
                        cost: unit.cost,
                        by_cat: unit.by_cat,
                    };
                    acc.scrap(current, &scrapped);
                }
            }
        }
    }
    std::mem::swap(cohorts, next);
}

// ---------------------------------------------------------------------
// The dual pass: one generic walk, K tangent directions at once.
// ---------------------------------------------------------------------

/// One resolved component of a tangent direction: `weight` is the
/// derivative of the op's **folded** parameter along the direction
/// (the per-unit → folded chain rule was already applied by the
/// resolver in [`crate::patch`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FoldedSeed {
    pub(crate) op: u32,
    pub(crate) kind: SlotKind,
    pub(crate) weight: f64,
}

/// Every direction's [`FoldedSeed`]s in one flat allocation;
/// `ends[i]` is the exclusive end of direction `i`'s range in `seeds`.
/// (A vec-of-vecs costs one allocation per direction per evaluation —
/// measurable next to the walk itself.)
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FoldedDirections {
    pub(crate) seeds: Vec<FoldedSeed>,
    pub(crate) ends: Vec<u32>,
}

impl FoldedDirections {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn direction(&self, i: usize) -> &[FoldedSeed] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.seeds[start..self.ends[i] as usize]
    }
}

/// Widest dual carried in one pass; more directions chunk into
/// multiple walks of at most this width.
const MAX_WIDTH: usize = 16;

/// Evaluate one op vector once per ≤[`MAX_WIDTH`]-direction chunk and
/// return the primal report (bit-identical to [`analyze_ops`]) plus
/// one exact [`Gradient`] per direction.
#[allow(clippy::too_many_arguments)] // mirrors analyze_ops plus the directions
pub(crate) fn analyze_ops_duals(
    ops: &[Op],
    entry: u32,
    len: u32,
    names: &[String],
    line_name: &str,
    nre: Money,
    volume: u64,
    directions: &FoldedDirections,
) -> Result<DualReport, FlowError> {
    if directions.len() == 0 {
        let report = analyze_ops(ops, entry, len, names, line_name, nre, volume)?;
        return Ok(DualReport {
            report,
            gradients: Vec::new(),
        });
    }
    let mut report = None;
    let mut gradients = Vec::with_capacity(directions.len());
    for start in (0..directions.len()).step_by(MAX_WIDTH) {
        let count = MAX_WIDTH.min(directions.len() - start);
        // Monomorphized widths: the headline K=12 tornado gets its own
        // instantiation; in-between counts round up (unused lanes stay
        // zero-seeded and cost a few wasted multiplies, not a pass).
        let chunk = (directions, start, count);
        let (chunk_report, chunk_gradients) = match count {
            1 => duals_chunk::<1>(ops, entry, len, names, line_name, nre, volume, chunk),
            2 => duals_chunk::<2>(ops, entry, len, names, line_name, nre, volume, chunk),
            3..=4 => duals_chunk::<4>(ops, entry, len, names, line_name, nre, volume, chunk),
            5..=8 => duals_chunk::<8>(ops, entry, len, names, line_name, nre, volume, chunk),
            9..=12 => duals_chunk::<12>(ops, entry, len, names, line_name, nre, volume, chunk),
            _ => duals_chunk::<MAX_WIDTH>(ops, entry, len, names, line_name, nre, volume, chunk),
        }?;
        report.get_or_insert(chunk_report);
        gradients.extend(chunk_gradients);
    }
    Ok(DualReport {
        report: report.expect("at least one chunk ran"),
        gradients,
    })
}

/// One K-wide dual walk: seed the chunk's directions, evaluate, strip
/// the primal into the shared [`report_from`] assembly and read each
/// report-level derivative off the tangent lanes.
#[allow(clippy::too_many_arguments)] // mirrors analyze_ops plus the directions
fn duals_chunk<const K: usize>(
    ops: &[Op],
    entry: u32,
    len: u32,
    names: &[String],
    line_name: &str,
    nre: Money,
    volume: u64,
    (directions, start, count): (&FoldedDirections, usize, usize),
) -> Result<(CostReport, Vec<Gradient>), FlowError> {
    debug_assert!(count <= K);
    let mut seeds = SeedTable::<K>::new(ops.len());
    for lane in 0..count {
        for part in directions.direction(start + lane) {
            seeds.seed(part.op as usize, part.kind, lane, part.weight);
        }
    }
    let (outcome, acc) = eval_region::<Dual<K>>(ops, entry, len, names.len(), &seeds);

    // Primal: the value components, assembled through the exact same
    // report_from the f64 walk uses — bit-identical by construction.
    let primal_outcome = LineOutcome {
        shipped: outcome.shipped.val,
        good: outcome.good.val,
        embodied: outcome.embodied.val,
        by_cat: outcome.by_cat.map(|c| c.val),
    };
    let primal_acc = Acc {
        scrap_mass: acc.scrap_mass.val,
        scrap_spend: acc.scrap_spend.val,
        scrap_by_cat: acc.scrap_by_cat.map(|c| c.val),
        defects: acc.defects,
    };
    let report = report_from(line_name, names, &primal_outcome, &primal_acc, nre, volume)?;

    // Tangents: differentiate the report formulas in dual arithmetic
    // (started = 1, so shipped *is* the shipped fraction).
    let shipped = outcome.shipped;
    let total_spend = outcome.embodied + acc.scrap_spend;
    let direct = outcome.embodied / shipped;
    let yield_loss = (total_spend - outcome.embodied) / shipped;
    let nre_per = Dual::<K>::from_f64(nre.units() / volume as f64) / shipped;
    let final_cost = direct + yield_loss + nre_per;
    let escape_rate = (shipped - outcome.good) / shipped;
    let mut by_category = [Dual::<K>::ZERO; NCAT];
    for (g, (o, s)) in by_category
        .iter_mut()
        .zip(outcome.by_cat.iter().zip(acc.scrap_by_cat.iter()))
    {
        *g = (*o + *s) / shipped;
    }
    let gradients = (0..count)
        .map(|k| Gradient {
            final_cost_per_shipped: final_cost.eps[k],
            direct_cost_per_shipped: direct.eps[k],
            yield_loss_per_shipped: yield_loss.eps[k],
            total_spend: total_spend.eps[k],
            shipped_fraction: shipped.eps[k],
            escape_rate: escape_rate.eps[k],
            by_category: by_category.map(|c| c.eps[k]),
        })
        .collect();
    Ok((report, gradients))
}

// ---------------------------------------------------------------------
// The object-graph oracle: the original (pre-IR) analytic engine, kept
// verbatim so property tests can pin the IR walker's results against
// it.
// ---------------------------------------------------------------------

/// Reference implementation: evaluate `line` analytically by walking
/// the nested object graph (the pre-compilation engine).
///
/// Kept as the oracle for [`analyze_program`]; see
/// `crates/moe/tests/analytic_ir.rs`. Production callers go through
/// [`Flow::analyze`](crate::Flow::analyze), which evaluates the cached
/// compiled program instead.
///
/// # Errors
///
/// Same contract as [`Flow::analyze`](crate::Flow::analyze).
#[doc(hidden)]
pub fn analyze_line_reference(
    line: &Line,
    nre: Money,
    volume: u64,
) -> Result<CostReport, FlowError> {
    line.validate()?;
    let mut names = Vec::new();
    let line_labels = labels::index_line(line, "", &mut names);
    let (outcome, acc) = eval_line(line, &line_labels, names.len());
    report_from(line.name(), &names, &outcome, &acc, nre, volume)
}

fn eval_line(line: &Line, line_labels: &LineLabels, n_labels: usize) -> (LineOutcome, Acc) {
    let mut acc = Acc::new(n_labels);

    // Carrier enters the line.
    let carrier = line.carrier();
    let y0 = carrier.incoming_yield().value().value();
    let c0 = carrier.cost().total().units();
    let mut by_cat = [0.0; NCAT];
    by_cat[carrier.category().index()] = c0;
    acc.defects[line_labels.carrier] += 1.0 - y0;
    let mut cohorts = vec![Cohort {
        good: y0,
        def: 1.0 - y0,
        cost: c0,
        by_cat,
    }];

    for (stage, stage_labels) in line.stages().iter().zip(line_labels.stages.iter()) {
        match (stage, stage_labels) {
            (Stage::Process(p), StageLabels::Process(label)) => {
                let y = p.process_yield().value().value();
                let cost = p.cost().total().units();
                for cohort in cohorts.iter_mut() {
                    cohort.add_cost(cost, p.category());
                    let newly = cohort.good * (1.0 - y);
                    cohort.good -= newly;
                    cohort.def += newly;
                    acc.defects[*label] += newly;
                }
            }
            (Stage::Attach(a), StageLabels::Attach { op, inputs }) => {
                // Assembly operation: cost and yield of the joining itself.
                let y_op = a.attach_yield().value().value();
                let op_cost = a.cost().total().units();
                for cohort in cohorts.iter_mut() {
                    cohort.add_cost(op_cost, a.category());
                    let newly = cohort.good * (1.0 - y_op);
                    cohort.good -= newly;
                    cohort.def += newly;
                    acc.defects[*op] += newly;
                }
                // Consumed inputs, applied sequentially for a well-defined
                // defect attribution.
                for ((input, qty), input_labels) in a.inputs().iter().zip(inputs.iter()) {
                    let q = *qty as f64;
                    match (input, input_labels) {
                        (AttachInput::Part(part), InputLabels::Part(label)) => {
                            let p_good = part.incoming_yield().value().value().powf(q);
                            let unit_cost = part.cost().total().units();
                            let cat = part.category();
                            for cohort in cohorts.iter_mut() {
                                cohort.add_cost(q * unit_cost, cat);
                                let newly = cohort.good * (1.0 - p_good);
                                cohort.good -= newly;
                                cohort.def += newly;
                                acc.defects[*label] += newly;
                            }
                        }
                        (AttachInput::Line(sub), InputLabels::Line(sub_labels)) => {
                            let (sub_out, sub_acc) = eval_line(sub, sub_labels, n_labels);
                            if sub_out.shipped <= 1e-12 {
                                // The subassembly ships nothing: every
                                // consumer is starved. Model as all-defective
                                // free input; the flow-level NothingShipped
                                // check reports the problem if it matters.
                                for cohort in cohorts.iter_mut() {
                                    cohort.def += cohort.good;
                                    cohort.good = 0.0;
                                }
                                continue;
                            }
                            let unit_cost = sub_out.embodied / sub_out.shipped;
                            let mut unit_cats = [0.0; NCAT];
                            for (u, s) in unit_cats.iter_mut().zip(sub_out.by_cat.iter()) {
                                *u = s / sub_out.shipped;
                            }
                            for u in unit_cats.iter_mut() {
                                *u *= q;
                            }
                            let p_good = (sub_out.good / sub_out.shipped).powf(q);
                            let alive: f64 = cohorts.iter().map(Cohort::mass).sum();
                            // Sub-units consumed per started outer unit, and
                            // sub-starts needed to produce them.
                            let consumed = alive * q;
                            let sub_starts = consumed / sub_out.shipped;
                            acc.merge_scaled(&sub_acc, sub_starts);
                            for cohort in cohorts.iter_mut() {
                                cohort.add_costs(q * unit_cost, &unit_cats);
                                let newly = cohort.good * (1.0 - p_good);
                                cohort.good -= newly;
                                cohort.def += newly;
                                // Escapes of the sub-line are already counted
                                // in its own defect labels (scaled above), so
                                // no extra label here.
                            }
                        }
                        _ => unreachable!("label map mismatch"),
                    }
                }
            }
            (Stage::Test(t), StageLabels::Test) => {
                let cov = t.coverage().value();
                let t_cost = t.cost().total().units();
                let mut next = Vec::with_capacity(cohorts.len() + 2);
                for mut cohort in cohorts.drain(..) {
                    cohort.add_cost(t_cost, CostCategory::Test);
                    let caught = cohort.def * cov;
                    let escape = cohort.def - caught;
                    let pass = Cohort {
                        good: cohort.good,
                        def: escape,
                        cost: cohort.cost,
                        by_cat: cohort.by_cat,
                    };
                    if pass.mass() > 0.0 {
                        next.push(pass);
                    }
                    if caught <= 0.0 {
                        continue;
                    }
                    match t.fail_action() {
                        FailAction::Scrap => {
                            let scrapped = Cohort {
                                good: 0.0,
                                def: caught,
                                cost: cohort.cost,
                                by_cat: cohort.by_cat,
                            };
                            acc.scrap(caught, &scrapped);
                        }
                        FailAction::Rework(rework) => {
                            let r_cost = rework.cost.total().units();
                            let rho = rework.success.value();
                            let mut current = caught;
                            let mut unit = Cohort {
                                good: 0.0,
                                def: current,
                                cost: cohort.cost,
                                by_cat: cohort.by_cat,
                            };
                            for _ in 0..rework.max_attempts {
                                if current <= 0.0 {
                                    break;
                                }
                                unit.add_cost(r_cost, CostCategory::Other);
                                unit.add_cost(t_cost, CostCategory::Test);
                                let fixed = current * rho;
                                let unfixed = current - fixed;
                                let escaped = unfixed * (1.0 - cov);
                                let recaught = unfixed - escaped;
                                if fixed + escaped > 0.0 {
                                    next.push(Cohort {
                                        good: fixed,
                                        def: escaped,
                                        cost: unit.cost,
                                        by_cat: unit.by_cat,
                                    });
                                }
                                current = recaught;
                            }
                            if current > 0.0 {
                                let scrapped = Cohort {
                                    good: 0.0,
                                    def: current,
                                    cost: unit.cost,
                                    by_cat: unit.by_cat,
                                };
                                acc.scrap(current, &scrapped);
                            }
                        }
                    }
                }
                cohorts = next;
            }
            _ => unreachable!("label map mismatch"),
        }
    }

    let mut outcome = LineOutcome {
        shipped: 0.0,
        good: 0.0,
        embodied: 0.0,
        by_cat: [0.0; NCAT],
    };
    for cohort in &cohorts {
        outcome.shipped += cohort.mass();
        outcome.good += cohort.good;
        outcome.embodied += cohort.mass() * cohort.cost;
        for (o, c) in outcome.by_cat.iter_mut().zip(cohort.by_cat.iter()) {
            *o += cohort.mass() * c;
        }
    }
    (outcome, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StepCost;
    use crate::part::Part;
    use crate::stage::{Attach, Process, Rework, Test};
    use crate::yield_model::YieldModel;
    use ipass_units::Probability;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    fn money(v: f64) -> Money {
        Money::new(v)
    }

    /// Evaluate through the production IR path *and* the object-graph
    /// oracle, assert they agree to 1e-12, and return the IR report —
    /// every unit test below therefore exercises both engines.
    fn analyze_line(line: &Line, nre: Money, volume: u64) -> Result<CostReport, FlowError> {
        let oracle = analyze_line_reference(line, nre, volume);
        let ir = line
            .validate()
            .and_then(|()| analyze_program(&RoutingProgram::compile(line), nre, volume));
        match (&oracle, &ir) {
            (Ok(a), Ok(b)) => {
                let close = |x: f64, y: f64, what: &str| {
                    assert!(
                        (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0),
                        "{what}: oracle {x} vs IR {y}"
                    );
                };
                close(a.shipped_fraction(), b.shipped_fraction(), "shipped");
                close(a.good_shipped(), b.good_shipped(), "good");
                close(a.total_spend().units(), b.total_spend().units(), "spend");
                close(
                    a.shipped_embodied().units(),
                    b.shipped_embodied().units(),
                    "embodied",
                );
                for cat in CostCategory::ALL {
                    close(
                        a.by_category()[cat].units(),
                        b.by_category()[cat].units(),
                        cat.label(),
                    );
                }
                assert_eq!(a.defect_pareto().len(), b.defect_pareto().len());
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("engines disagree on failure: oracle {a:?} vs IR {b:?}"),
        }
        ir
    }

    #[test]
    fn single_process_no_test_ships_everything() {
        let line = Line::builder(
            "l",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(money(2.0))),
        )
        .process(
            Process::new("p")
                .with_cost(StepCost::fixed(money(3.0)))
                .with_yield(YieldModel::flat(p(0.9))),
        )
        .build()
        .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        assert!((r.shipped_fraction() - 1.0).abs() < 1e-12);
        // 10 % of shipped units are defective escapes (no test).
        assert!((r.escape_rate() - 0.1).abs() < 1e-12);
        assert!((r.final_cost_per_shipped().units() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_test_scraps_all_defectives() {
        let line = Line::builder(
            "l",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(money(10.0))),
        )
        .process(Process::new("p").with_yield(YieldModel::flat(p(0.8))))
        .test(Test::new("t").with_cost(StepCost::fixed(money(1.0))))
        .build()
        .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        assert!((r.shipped_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(r.escape_rate(), 0.0);
        // Each shipped unit costs 11; scrap = 0.2 × 11 spread over 0.8.
        assert!((r.direct_cost_per_shipped().units() - 11.0).abs() < 1e-12);
        assert!((r.yield_loss_per_shipped().units() - 0.2 * 11.0 / 0.8).abs() < 1e-12);
    }

    #[test]
    fn imperfect_coverage_lets_escapes_through() {
        let line = Line::builder("l", Part::new("c", CostCategory::Substrate))
            .process(Process::new("p").with_yield(YieldModel::flat(p(0.9))))
            .test(Test::new("t").with_coverage(p(0.99)))
            .build()
            .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        let expected_shipped = 0.9 + 0.1 * 0.01;
        assert!((r.shipped_fraction() - expected_shipped).abs() < 1e-12);
        assert!((r.escapes() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn attach_brings_part_cost_and_defects() {
        let line = Line::builder("l", Part::new("c", CostCategory::Substrate))
            .attach(
                Attach::new("a")
                    .input(
                        Part::new("die", CostCategory::Chip)
                            .with_cost(StepCost::fixed(money(5.0)))
                            .with_incoming_yield(YieldModel::flat(p(0.95))),
                        2,
                    )
                    .with_cost(StepCost::per_item(money(0.1), 2))
                    .with_yield(YieldModel::flat(p(0.99))),
            )
            .build()
            .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        // Cost: 2 dies × 5 + op 0.2.
        assert!((r.direct_cost_per_shipped().units() - 10.2).abs() < 1e-12);
        // Good fraction: 0.99 (op) × 0.95².
        let expected_good = 0.99 * 0.95f64.powi(2);
        assert!((1.0 - r.escape_rate() - expected_good).abs() < 1e-12);
        assert!((r.category_cost_per_shipped(CostCategory::Chip).units() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rework_recovers_units() {
        // All units defective after the process; rework always succeeds.
        let line = Line::builder(
            "l",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(money(1.0))),
        )
        .process(Process::new("break").with_yield(YieldModel::flat(p(0.0))))
        .test(
            Test::new("t")
                .with_cost(StepCost::fixed(money(1.0)))
                .on_fail(FailAction::Rework(Rework::new(
                    StepCost::fixed(money(0.5)),
                    p(1.0),
                    3,
                ))),
        )
        .build()
        .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        assert!((r.shipped_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(r.escape_rate(), 0.0);
        // Cost: carrier 1 + test 1 + rework 0.5 + retest 1 = 3.5.
        assert!((r.final_cost_per_shipped().units() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn rework_exhausts_attempts_and_scraps() {
        // Rework never succeeds, coverage perfect: after 2 attempts scrap.
        let line = Line::builder(
            "l",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(money(1.0))),
        )
        .process(Process::new("break").with_yield(YieldModel::flat(p(0.5))))
        .test(Test::new("t").on_fail(FailAction::Rework(Rework::new(StepCost::ZERO, p(0.0), 2))))
        .build()
        .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        assert!((r.shipped_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.escape_rate(), 0.0);
    }

    #[test]
    fn nested_line_scrap_is_booked_globally() {
        // Sub-line: 50 % yield with perfect test → every consumed good
        // unit costs 2 sub-starts; sub scrap appears as yield loss.
        let sub = Line::builder(
            "sub",
            Part::new("blank", CostCategory::Substrate).with_cost(StepCost::fixed(money(4.0))),
        )
        .process(Process::new("fab").with_yield(YieldModel::flat(p(0.5))))
        .test(Test::new("probe"))
        .build()
        .unwrap();
        let line = Line::builder("main", Part::new("pcb", CostCategory::Substrate))
            .attach(Attach::new("join").input(sub, 1))
            .build()
            .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        // Direct: one good sub-unit embodies 4.0.
        assert!((r.direct_cost_per_shipped().units() - 4.0).abs() < 1e-12);
        // Scrap: one extra sub-start of 4.0 sunk per shipped unit.
        assert!((r.yield_loss_per_shipped().units() - 4.0).abs() < 1e-12);
        assert!((r.final_cost_per_shipped().units() - 8.0).abs() < 1e-12);
        // Sub-line consumed good units only → no escapes.
        assert_eq!(r.escape_rate(), 0.0);
    }

    #[test]
    fn pareto_identifies_dominant_defect_source() {
        let line = Line::builder("l", Part::new("c", CostCategory::Substrate))
            .process(Process::new("small").with_yield(YieldModel::flat(p(0.99))))
            .process(Process::new("big").with_yield(YieldModel::flat(p(0.8))))
            .build()
            .unwrap();
        let r = analyze_line(&line, Money::ZERO, 1).unwrap();
        let pareto = r.defect_pareto();
        assert_eq!(pareto[0].0, "big");
        assert!((pareto[0].1 - 0.99 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn nothing_shipped_is_an_error() {
        let line = Line::builder("l", Part::new("c", CostCategory::Substrate))
            .process(Process::new("kill").with_yield(YieldModel::flat(p(0.0))))
            .test(Test::new("t"))
            .build()
            .unwrap();
        let err = analyze_line(&line, Money::ZERO, 1).unwrap_err();
        assert!(matches!(err, FlowError::NothingShipped { .. }));
    }
}
