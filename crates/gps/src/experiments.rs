//! One reproduction entry point per table and figure of the paper.
//!
//! Every function returns a structure holding the *measured* values next
//! to the *paper's* published ones, plus a `render()` for human-readable
//! output. EXPERIMENTS.md records the resulting deltas.

use crate::bom::gps_bom;
use crate::filters::{assess_performance, PerformanceAssessment};
use crate::paper;
use crate::table2::cost_inputs;
use ipass_core::{
    AreaBreakdown, BuildUp, BuildUpPlan, CandidateScore, CostInputs, DecisionError, DecisionTable,
    FomWeights, PlanError, SelectionObjective,
};
use ipass_explore::ExploreError;
use ipass_moe::{
    CostCategory, CostReport, Flow, FlowError, FlowPatch, SimOptions, SimSummary, StepCost,
};
use ipass_passives::{
    smd_area_series, MimCapacitor, SpiralInductor, SynthesisError, ThinFilmProcess,
    ThinFilmResistor,
};
use ipass_units::{Area, Capacitance, Inductance, Probability, Resistance};
use std::error::Error;
use std::fmt;

/// Error from an experiment driver.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// Technology selection failed.
    Plan(PlanError),
    /// Cost-flow evaluation failed.
    Flow(FlowError),
    /// Decision ranking failed.
    Decision(DecisionError),
    /// Component synthesis failed.
    Synthesis(SynthesisError),
    /// Design-space exploration failed.
    Explore(ExploreError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Plan(e) => write!(f, "planning failed: {e}"),
            ExperimentError::Flow(e) => write!(f, "cost evaluation failed: {e}"),
            ExperimentError::Decision(e) => write!(f, "decision failed: {e}"),
            ExperimentError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            ExperimentError::Explore(e) => write!(f, "exploration failed: {e}"),
        }
    }
}

impl Error for ExperimentError {}

impl From<PlanError> for ExperimentError {
    fn from(e: PlanError) -> Self {
        ExperimentError::Plan(e)
    }
}

impl From<FlowError> for ExperimentError {
    fn from(e: FlowError) -> Self {
        ExperimentError::Flow(e)
    }
}

impl From<DecisionError> for ExperimentError {
    fn from(e: DecisionError) -> Self {
        ExperimentError::Decision(e)
    }
}

impl From<SynthesisError> for ExperimentError {
    fn from(e: SynthesisError) -> Self {
        ExperimentError::Synthesis(e)
    }
}

impl From<ExploreError> for ExperimentError {
    fn from(e: ExploreError) -> Self {
        ExperimentError::Explore(e)
    }
}

/// Everything the methodology derives for one solution.
#[derive(Debug, Clone)]
pub struct SolutionAssessment {
    /// The build-up.
    pub buildup: BuildUp,
    /// The paper's name for it.
    pub label: &'static str,
    /// The selected plan.
    pub plan: BuildUpPlan,
    /// Step 3: areas.
    pub area: AreaBreakdown,
    /// Step 2: filter performance.
    pub performance: PerformanceAssessment,
    /// Step 4: the analytic cost report.
    pub cost: CostReport,
}

/// Paper solution `index` (0–3, in [`BuildUp::paper_solutions`]
/// order) as the methodology builds it: the GPS bill of materials
/// planned for minimum area, and its production flow on the sized
/// substrate under the Table 2 card `cost_inputs(plan.buildup())`.
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning or flow construction fails.
///
/// # Panics
///
/// Panics if `index` is 4 or more.
pub fn solution(index: usize) -> Result<(BuildUpPlan, Flow), ExperimentError> {
    let buildup = BuildUp::paper_solutions()[index];
    let plan = buildup.plan(&gps_bom(&buildup), SelectionObjective::MinArea)?;
    let flow = plan.production_flow(plan.area().substrate_area, &cost_inputs(&buildup))?;
    Ok((plan, flow))
}

/// Move the carrier's substrate yield to `y` on a patch of a solution's
/// program. Under a known-good-substrate card the purchase cost pays
/// for the fab's own scrap, so the carrier cost moves with the yield:
/// the same expression `production_flow` uses.
fn patch_substrate_yield(
    patch: &mut FlowPatch,
    carrier: &str,
    card: &CostInputs,
    area: Area,
    y: Probability,
) -> Result<(), FlowError> {
    patch.set_yield(carrier, y)?;
    if card.substrate_fab_yield_per_cm2.is_some() {
        let rate = card.substrate_cost_per_cm2 / y.powf(area.cm2()).value();
        patch.set_cost(carrier, StepCost::per_area(rate, area).total())?;
    }
    Ok(())
}

/// Run methodology steps 1–4 for all four paper solutions (analytic cost
/// engine). The solutions are assessed in parallel on the shared
/// [`ipass_sim`] executor — an embarrassingly parallel batch.
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning or cost evaluation fails.
pub fn assess_all() -> Result<Vec<SolutionAssessment>, ExperimentError> {
    ipass_sim::Executor::available().try_map(&paper::SOLUTION_NAMES, |index, &label| {
        let (plan, flow) = solution(index)?;
        let buildup = *plan.buildup();
        Ok(SolutionAssessment {
            buildup,
            label,
            area: plan.area(),
            performance: assess_performance(&buildup),
            cost: flow.analyze()?,
            plan,
        })
    })
}

/// The four paper solutions' production flows, labelled with the
/// paper's solution names — the full committed-model surface the
/// `ipass lint` gate verifies statically (every flow a registry
/// artifact evaluates passes through here).
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning or flow construction fails.
pub fn solution_flows() -> Result<Vec<(&'static str, Flow)>, ExperimentError> {
    paper::SOLUTION_NAMES
        .iter()
        .enumerate()
        .map(|(index, &label)| Ok((label, solution(index)?.1)))
        .collect()
}

// ---------------------------------------------------------------------
// Fig. 1 — area vs SMD type.
// ---------------------------------------------------------------------

/// One bar of Fig. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Case code (e.g. "0603").
    pub code: &'static str,
    /// Pure component (body) area, mm².
    pub body_mm2: f64,
    /// Mounted footprint area, mm².
    pub footprint_mm2: f64,
}

/// Fig. 1: pure component vs footprint area over the SMD sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// The bars, largest case first.
    pub rows: Vec<Fig1Row>,
}

impl Fig1 {
    /// The figure as a typed [`Series`](ipass_report::Series) artifact
    /// (case codes on x; body, footprint and overhead lines).
    pub fn artifact(&self) -> ipass_report::Series {
        ipass_report::Series::new(
            "Fig. 1 — area vs SMD type [mm²]",
            "type",
            ipass_report::SeriesX::Labels(self.rows.iter().map(|r| r.code.to_owned()).collect()),
        )
        .with_precision(2)
        .line("body", self.rows.iter().map(|r| r.body_mm2).collect())
        .line(
            "footprint",
            self.rows.iter().map(|r| r.footprint_mm2).collect(),
        )
        .line(
            "overhead",
            self.rows
                .iter()
                .map(|r| r.footprint_mm2 - r.body_mm2)
                .collect(),
        )
    }

    /// Render the series (the artifact pipeline's txt sink).
    pub fn render(&self) -> String {
        self.artifact().to_txt()
    }
}

/// Regenerate Fig. 1 from the SMD catalog.
pub fn fig1() -> Fig1 {
    Fig1 {
        rows: smd_area_series()
            .into_iter()
            .map(|(size, body, footprint)| Fig1Row {
                code: size.code(),
                body_mm2: body.mm2(),
                footprint_mm2: footprint.mm2(),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Table 1 — area-relevant data (with synthesis cross-checks).
// ---------------------------------------------------------------------

/// One paper-vs-synthesized area comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// What is compared.
    pub label: String,
    /// The paper's Table 1 value (mm²).
    pub paper_mm2: f64,
    /// Our synthesized/catalog value (mm²).
    pub measured_mm2: f64,
}

/// Table 1 reproduced: paper constants vs in-crate synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The comparison rows.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// The comparison as a typed artifact table.
    pub fn artifact(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        self.rows.iter().fold(
            ipass_report::Table::new("Table 1 — area-relevant data [mm²]")
                .text_column("component")
                .numeric_column("paper", 3)
                .numeric_column("measured", 3),
            |t, r| {
                t.row(vec![
                    Cell::text(&r.label),
                    Cell::num(r.paper_mm2),
                    Cell::num(r.measured_mm2),
                ])
            },
        )
    }

    /// Render the comparison (the artifact pipeline's txt sink).
    pub fn render(&self) -> String {
        self.artifact().to_txt()
    }
}

/// Regenerate Table 1's integrated-passive areas by synthesis in the
/// SUMMIT process, next to the catalog SMD footprints.
///
/// # Errors
///
/// Returns [`ExperimentError::Synthesis`] if a component cannot be
/// synthesized (it can, for the published values).
pub fn table1() -> Result<Table1, ExperimentError> {
    let process = ThinFilmProcess::summit_mcm_d();
    let r100k = ThinFilmResistor::synthesize(Resistance::from_kilo(100.0), &process)?;
    let c50p = MimCapacitor::synthesize(Capacitance::from_pico(50.0), &process)?;
    let l40n = SpiralInductor::synthesize(Inductance::from_nano(40.0), &process)?;
    let rows = vec![
        Table1Row {
            label: "IP-R 100 kΩ (CrSi meander)".into(),
            paper_mm2: paper::TABLE1_IP_R_100K_MM2,
            measured_mm2: r100k.area().mm2(),
        },
        Table1Row {
            label: "IP-C 50 pF (high-κ MIM)".into(),
            paper_mm2: paper::TABLE1_IP_C_50P_MM2,
            measured_mm2: c50p.area().mm2(),
        },
        Table1Row {
            label: "IP-L 40 nH (square spiral)".into(),
            paper_mm2: paper::TABLE1_IP_L_40N_MM2,
            measured_mm2: l40n.area().mm2(),
        },
        Table1Row {
            label: "SMD 0603 footprint".into(),
            paper_mm2: 3.75,
            measured_mm2: ipass_passives::SmdSize::I0603.footprint_area().mm2(),
        },
        Table1Row {
            label: "SMD 0805 footprint".into(),
            paper_mm2: 4.5,
            measured_mm2: ipass_passives::SmdSize::I0805.footprint_area().mm2(),
        },
    ];
    Ok(Table1 { rows })
}

// ---------------------------------------------------------------------
// Table 2 — the cost and yield cards of the four implementations.
// ---------------------------------------------------------------------

/// One implementation's Table 2 card, labeled with the paper's name.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The paper's name for the solution.
    pub label: &'static str,
    /// The cost/yield card (see [`crate::table2::cost_inputs`] for the
    /// ambiguity-resolution notes).
    pub card: ipass_core::CostInputs,
}

/// Table 2 reproduced: the cost and yield cards driving the MOE cost
/// analysis, one row per paper solution.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The four cards, in solution order.
    pub rows: Vec<Table2Row>,
}

impl Table2 {
    /// The cards as a typed artifact table (empty cells where a card
    /// has no such step — a PCB needs no BGA laminate).
    pub fn artifact(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        let opt_money = |m: Option<ipass_units::Money>| match m {
            Some(m) => Cell::num(m.units()),
            None => Cell::Empty,
        };
        self.rows
            .iter()
            .fold(
                ipass_report::Table::new("Table 2 — cost [cost units] and yield cards")
                    .text_column("implementation")
                    .numeric_column("substrate $/cm²", 2)
                    .numeric_column("substrate yield", 4)
                    .numeric_column("chip set", 1)
                    .numeric_column("chip attach yield", 4)
                    .numeric_column("SMD kit", 1)
                    .numeric_column("packaging", 2)
                    .numeric_column("packaging yield", 3)
                    .numeric_column("final test", 1)
                    .numeric_column("fault coverage", 3),
                |t, r| {
                    let card = &r.card;
                    t.row(vec![
                        Cell::text(r.label),
                        Cell::num(card.substrate_cost_per_cm2.units()),
                        Cell::num(card.substrate_yield.value()),
                        Cell::num(card.chips.iter().map(|c| c.cost.units()).sum::<f64>()),
                        Cell::num(card.chip_attach_yield.value()),
                        opt_money(card.smd_parts_cost_override),
                        opt_money(card.packaging.map(|(c, _)| c)),
                        match card.packaging {
                            Some((_, y)) => Cell::num(y.value()),
                            None => Cell::Empty,
                        },
                        Cell::num(card.final_test_cost.units()),
                        Cell::num(card.fault_coverage.value()),
                    ])
                },
            )
            .note("empty SMD kit: the kit price equals the BOM's own sum (no override)")
            .note("empty packaging: the PCB reference ships without a BGA laminate")
    }
}

/// Regenerate Table 2: the cost/yield card of every paper solution.
pub fn table2() -> Table2 {
    Table2 {
        rows: BuildUp::paper_solutions()
            .iter()
            .zip(paper::SOLUTION_NAMES.iter())
            .map(|(buildup, label)| Table2Row {
                label,
                card: cost_inputs(buildup),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Fig. 3 — area consumed by the build-ups.
// ---------------------------------------------------------------------

/// One bar of Fig. 3.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Solution label.
    pub label: &'static str,
    /// Absolute module area.
    pub module_area_mm2: f64,
    /// Percent of the PCB reference.
    pub measured_percent: f64,
    /// The paper's percentage.
    pub paper_percent: f64,
}

/// Fig. 3 reproduced.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// The four bars.
    pub rows: Vec<Fig3Row>,
}

impl Fig3 {
    /// The comparison as a typed artifact table.
    pub fn artifact(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        self.rows.iter().fold(
            ipass_report::Table::new("Fig. 3 — area consumed by the build-ups")
                .text_column("implementation")
                .numeric_column("module [mm²]", 1)
                .numeric_column("measured %", 1)
                .numeric_column("paper %", 0),
            |t, r| {
                t.row(vec![
                    Cell::text(r.label),
                    Cell::num(r.module_area_mm2),
                    Cell::num(r.measured_percent),
                    Cell::num(r.paper_percent),
                ])
            },
        )
    }

    /// Render the comparison (the artifact pipeline's txt sink).
    pub fn render(&self) -> String {
        self.artifact().to_txt()
    }
}

/// Regenerate Fig. 3 (methodology step 3 for all four solutions).
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning fails.
pub fn fig3() -> Result<Fig3, ExperimentError> {
    let assessments = assess_all()?;
    let reference = assessments[0].area.module_area;
    Ok(Fig3 {
        rows: assessments
            .iter()
            .enumerate()
            .map(|(i, a)| Fig3Row {
                label: a.label,
                module_area_mm2: a.area.module_area.mm2(),
                measured_percent: a.area.module_area / reference * 100.0,
                paper_percent: paper::FIG3_AREA_PERCENT[i],
            })
            .collect(),
    })
}

// ---------------------------------------------------------------------
// Fig. 4 — the MOE production model, Monte Carlo.
// ---------------------------------------------------------------------

/// Fig. 4 reproduced: the solution-2 production model run through the
/// Monte Carlo engine with the figure's unit count.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Stage names of the generic model, in flow order.
    pub stages: Vec<String>,
    /// The Fig. 4-style box diagram of the model.
    pub diagram: String,
    /// The Monte Carlo outcome.
    pub summary: SimSummary,
    /// Units started (the figure's 8007).
    pub started: u64,
}

impl Fig4 {
    /// Modules shipped in the run.
    pub fn shipped(&self) -> f64 {
        self.summary.report.shipped()
    }

    /// Modules scrapped in the run.
    pub fn scrapped(&self) -> f64 {
        self.summary.scrapped
    }

    /// The run outcome as a typed artifact table (measured vs the
    /// paper's illustration).
    pub fn artifact(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        ipass_report::Table::new("Fig. 4 — generic MOE model (solution 2), Monte Carlo run")
            .text_column("quantity")
            .numeric_column("measured", 0)
            .numeric_column("paper", 0)
            .row(vec![
                Cell::text("units started"),
                Cell::num(self.started as f64),
                Cell::num(paper::FIG4_STARTED as f64),
            ])
            .row(vec![
                Cell::text("modules shipped"),
                Cell::num(self.shipped()),
                Cell::num(paper::FIG4_SHIPPED as f64),
            ])
            .row(vec![
                Cell::text("units scrapped"),
                Cell::num(self.scrapped()),
                Cell::num(paper::FIG4_SCRAPPED as f64),
            ])
    }

    /// Render the model and outcome.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig. 4 — generic MOE model (solution 2), Monte Carlo run\n");
        out.push_str(&self.diagram);
        out.push_str(&format!(
            "  started {} → shipped {:.0} (paper's illustration: {} → {}), scrapped {:.0} (paper: {})\n",
            self.started,
            self.shipped(),
            paper::FIG4_STARTED,
            paper::FIG4_SHIPPED,
            self.scrapped(),
            paper::FIG4_SCRAPPED,
        ));
        out
    }
}

/// Run the Fig. 4 model with `seed`; `paper::FIG4_STARTED` units enter.
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning or simulation fails.
pub fn fig4(seed: u64) -> Result<Fig4, ExperimentError> {
    let (_, flow) = solution(1)?;
    let mut stages: Vec<String> = vec![format!(
        "component/carrier: {}",
        flow.line().carrier().name()
    )];
    stages.extend(flow.line().stages().iter().map(|s| s.name().to_owned()));
    stages.push("collector: modules to be shipped".into());
    stages.push("scrap".into());
    let summary = flow.simulate_summary(&SimOptions::new(paper::FIG4_STARTED).with_seed(seed))?;
    Ok(Fig4 {
        stages,
        diagram: flow.line().render_diagram(),
        summary,
        started: paper::FIG4_STARTED,
    })
}

// ---------------------------------------------------------------------
// Fig. 5 — cost analysis.
// ---------------------------------------------------------------------

/// One bar of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Solution label.
    pub label: &'static str,
    /// Final cost per shipped unit (Eq. 1), cost units.
    pub final_cost: f64,
    /// Percent of the PCB reference.
    pub measured_percent: f64,
    /// The paper's percentage.
    pub paper_percent: f64,
    /// Direct-cost component per shipped unit.
    pub direct_cost: f64,
    /// Yield-loss component per shipped unit.
    pub yield_loss: f64,
    /// "Thereof: chip cost" per shipped unit.
    pub chip_cost: f64,
}

/// Fig. 5 reproduced.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// The four bars.
    pub rows: Vec<Fig5Row>,
}

impl Fig5 {
    /// The figure as a typed artifact table (final cost, percent of
    /// reference vs paper, the cost components).
    pub fn artifact_table(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        self.rows.iter().fold(
            ipass_report::Table::new("Fig. 5 — final cost (MOE), percent of PCB reference")
                .text_column("implementation")
                .numeric_column("final", 1)
                .numeric_column("measured %", 1)
                .numeric_column("paper %", 1)
                .numeric_column("direct", 1)
                .numeric_column("yield loss", 1)
                .numeric_column("chip cost", 1),
            |t, r| {
                t.row(vec![
                    Cell::text(r.label),
                    Cell::num(r.final_cost),
                    Cell::num(r.measured_percent),
                    Cell::num(r.paper_percent),
                    Cell::num(r.direct_cost),
                    Cell::num(r.yield_loss),
                    Cell::num(r.chip_cost),
                ])
            },
        )
    }

    /// The figure as a typed stacked [`Breakdown`] artifact: one bar
    /// per solution (direct cost + yield loss per shipped unit, chip
    /// cost as the paper's callout).
    ///
    /// [`Breakdown`]: ipass_report::Breakdown
    pub fn artifact_breakdown(&self) -> ipass_report::Breakdown {
        use ipass_report::Segment;
        self.rows
            .iter()
            .fold(
                ipass_report::Breakdown::new(
                    "Fig. 5 — final cost composition per shipped unit",
                    "cost units",
                ),
                |b, r| {
                    b.group_with_callouts(
                        r.label,
                        vec![
                            Segment::new("direct cost", r.direct_cost),
                            Segment::new("yield loss", r.yield_loss),
                        ],
                        vec![Segment::new("chip cost", r.chip_cost)],
                    )
                },
            )
            .note("percent of PCB reference: see the fig5 table artifact")
    }

    /// Render the stacked-bar data (the artifact pipeline's txt sink).
    pub fn render(&self) -> String {
        self.artifact_table().to_txt()
    }
}

fn fig5_from_reports(reports: Vec<(&'static str, CostReport)>) -> Fig5 {
    let reference = reports[0].1.final_cost_per_shipped();
    Fig5 {
        rows: reports
            .into_iter()
            .enumerate()
            .map(|(i, (label, report))| Fig5Row {
                label,
                final_cost: report.final_cost_per_shipped().units(),
                measured_percent: report.final_cost_per_shipped() / reference * 100.0,
                paper_percent: paper::FIG5_COST_PERCENT[i],
                direct_cost: report.direct_cost_per_shipped().units(),
                yield_loss: report.yield_loss_per_shipped().units(),
                chip_cost: report.category_cost_per_shipped(CostCategory::Chip).units(),
            })
            .collect(),
    }
}

/// Regenerate Fig. 5 with the closed-form engine.
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning or evaluation fails.
pub fn fig5() -> Result<Fig5, ExperimentError> {
    let assessments = assess_all()?;
    Ok(fig5_from_reports(
        assessments.into_iter().map(|a| (a.label, a.cost)).collect(),
    ))
}

/// Regenerate Fig. 5 with the Monte Carlo engine (the paper's actual
/// procedure). The four solutions are simulated in parallel; the
/// reports are bit-identical to serial runs (the determinism contract
/// of `ipass-sim`).
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning or simulation fails.
pub fn fig5_monte_carlo(units: u64, seed: u64) -> Result<Fig5, ExperimentError> {
    let reports =
        ipass_sim::Executor::available().try_map(&paper::SOLUTION_NAMES, |index, &label| {
            let (_, flow) = solution(index)?;
            Ok::<_, ExperimentError>((
                label,
                flow.simulate(&SimOptions::new(units).with_seed(seed))?,
            ))
        })?;
    Ok(fig5_from_reports(reports))
}

// ---------------------------------------------------------------------
// Fig. 6 — figure of merit.
// ---------------------------------------------------------------------

/// Fig. 6 reproduced: the decision table plus the paper's column.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// The computed decision table.
    pub table: DecisionTable,
    /// The paper's published FoM values, aligned with the rows.
    pub paper_fom: [f64; 4],
}

impl Fig6 {
    /// The decision as a typed artifact table: the computed factors and
    /// figure of merit next to the paper's published FoM column, the
    /// winner marked `◀ chosen`.
    pub fn artifact(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        let best = self.table.best().name.clone();
        self.table.rows().iter().zip(self.paper_fom.iter()).fold(
            ipass_report::Table::new("Fig. 6 — figure of merit (perf × 1/size × 1/cost)")
                .text_column("implementation")
                .numeric_column("perf", 2)
                .numeric_column("size ×", 2)
                .numeric_column("cost ×", 3)
                .numeric_column("FoM", 2)
                .numeric_column("paper", 2)
                .text_column(""),
            |t, (row, paper_fom)| {
                t.row(vec![
                    Cell::text(&row.name),
                    Cell::num(row.performance),
                    Cell::num(row.size_ratio),
                    Cell::num(row.cost_ratio),
                    Cell::num(row.fom),
                    Cell::num(*paper_fom),
                    Cell::text(if row.name == best { "◀ chosen" } else { "" }),
                ])
            },
        )
    }

    /// Render paper-vs-measured (the artifact pipeline's txt sink).
    pub fn render(&self) -> String {
        self.artifact().to_txt()
    }
}

/// Regenerate Fig. 6 (methodology step 5).
///
/// # Errors
///
/// Returns [`ExperimentError`] if any earlier step fails.
pub fn fig6() -> Result<Fig6, ExperimentError> {
    let assessments = assess_all()?;
    let candidates: Vec<CandidateScore> = assessments
        .iter()
        .map(|a| {
            CandidateScore::new(
                a.label,
                a.performance.overall,
                a.area.module_area,
                a.cost.final_cost_per_shipped(),
            )
        })
        .collect();
    let table = DecisionTable::rank(
        &candidates,
        paper::SOLUTION_NAMES[0],
        FomWeights::unweighted(),
    )?;
    Ok(Fig6 {
        table,
        paper_fom: paper::FIG6_FOM,
    })
}

// ---------------------------------------------------------------------
// Sensitivity — which Table 2 inputs drive solution 4's cost?
// ---------------------------------------------------------------------

/// Tornado sensitivity of a solution's final cost to the Table 2 inputs.
///
/// Perturbs each input to a low/high variant (±20 % costs, ±5 points
/// yields, coverage 95…99.9 %) and ranks the swings. The paper's remark
/// that results were compared "for different cost and yield
/// implications" becomes a chart.
///
/// The production line is planned and compiled **once**. One
/// dual-carrying analytic walk
/// ([`Tornado::evaluate_gradients`](ipass_moe::Tornado::evaluate_gradients))
/// covers the baseline and every pure-cost row at once — final cost is
/// affine in each cost slot, so the gradient extrapolation
/// `baseline + ∂cost/∂scale · Δ` is *exact*, not first-order. Only the
/// two rows whose large steps move cohort masses nonlinearly — the
/// KGS-coupled substrate-yield shift and the 99.9 → 95 % coverage drop
/// — are re-evaluated as [`ipass_moe::FlowPatch`]es of the shared
/// program: `1 + 4` walks in all.
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning or evaluation fails.
pub fn sensitivity(solution_index: usize) -> Result<ipass_moe::Tornado, ExperimentError> {
    use ipass_moe::{DualDirection, SlotKind, Tornado, TornadoDirection, TornadoRow};

    let (plan, flow) = solution(solution_index)?;
    let area = plan.area().substrate_area;
    let base_card = cost_inputs(plan.buildup());
    let compiled = flow.compiled()?;
    let carrier = flow.line().carrier().name().to_owned();

    // A "scale these slots by ±delta" row: weighting each slot by its
    // current per-unit cost makes the lane's derivative
    // ∂cost/∂(scale factor), so a ±x % row extrapolates with Δ = ±x/100.
    let scale_row = |name: &'static str,
                     slots: &[String],
                     delta: f64|
     -> Result<TornadoDirection<'static>, FlowError> {
        let mut direction = DualDirection::new();
        for slot in slots {
            direction =
                direction.with(slot, SlotKind::Cost, compiled.slot_unit_cost(slot)?.units());
        }
        Ok(TornadoDirection {
            name,
            direction,
            low: -delta,
            high: delta,
        })
    };
    let chip_slots: Vec<String> = base_card
        .chips
        .iter()
        .map(|chip| format!("chip assembly/{}", chip.name))
        .collect();
    let mut cost_rows = vec![
        scale_row("chip cost ±10 %", &chip_slots, 0.1)?,
        scale_row(
            "substrate cost/cm² ±20 %",
            std::slice::from_ref(&carrier),
            0.2,
        )?,
        scale_row("test cost ±50 %", &["functional test".to_owned()], 0.5)?,
    ];
    if base_card.packaging.is_some() {
        cost_rows.push(scale_row(
            "packaging cost ±30 %",
            &["packaging / mount on laminate".to_owned()],
            0.3,
        )?);
    }
    let exact = Tornado::evaluate_gradients(&compiled, &cost_rows)?;

    let shift_substrate_yield = |delta: f64| -> Result<FlowPatch, FlowError> {
        let mut patch = compiled.patch();
        let y = Probability::clamped(base_card.substrate_yield.value() + delta);
        patch_substrate_yield(&mut patch, &carrier, &base_card, area, y)?;
        Ok(patch)
    };
    let set_coverage = |cov: f64| -> Result<FlowPatch, FlowError> {
        let mut patch = compiled.patch();
        patch.set_coverage("functional test", Probability::clamped(cov))?;
        Ok(patch)
    };
    let patched_cost = |patch: Result<FlowPatch, FlowError>| -> Result<f64, FlowError> {
        Ok(patch?.analyze()?.final_cost_per_shipped().units())
    };
    let mut rows = exact.rows().to_vec();
    rows.push(TornadoRow {
        name: "substrate yield ∓5 pts".to_owned(),
        low_cost: patched_cost(shift_substrate_yield(0.05))?,
        high_cost: patched_cost(shift_substrate_yield(-0.05))?,
    });
    rows.push(TornadoRow {
        name: "fault coverage 99.9 → 95 %".to_owned(),
        low_cost: patched_cost(set_coverage(0.999))?,
        high_cost: patched_cost(set_coverage(0.95))?,
    });
    Ok(Tornado::from_rows(exact.baseline_cost(), rows))
}

// ---------------------------------------------------------------------
// Design space — volume × substrate yield, beyond the paper's points.
// ---------------------------------------------------------------------

/// A solution's production-economics design space: amortization volume
/// × substrate yield, screened analytically and refined by Monte Carlo
/// (see [`ipass_explore::FlowExplorer::refine`]).
///
/// The paper evaluates each build-up at one volume and one yield card;
/// this experiment asks the family question instead — *at which volumes
/// and substrate yields does the solution's cost story hold?* — and
/// returns the Pareto frontier over *(final cost ↓, shipped fraction ↑)*
/// with only the frontier-adjacent band paying for MC confirmation.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// The paper's name for the explored solution.
    pub label: &'static str,
    /// NRE charged to the run (the 30 000-unit IP mask-set ablation's
    /// figure), amortized along the volume axis.
    pub nre: ipass_units::Money,
    /// The refined exploration.
    pub refined: ipass_explore::Refined,
}

impl DesignSpace {
    /// The exploration as a typed
    /// [`FrontierPlot`](ipass_report::FrontierPlot) artifact: every
    /// screened point, the frontier, and the Monte Carlo confirmations
    /// of the promoted band.
    pub fn artifact(&self) -> ipass_report::FrontierPlot {
        self.refined.frontier_plot(format!(
            "design space — {} (volume × substrate yield, NRE {:.0})",
            self.label,
            self.nre.units()
        ))
    }

    /// Render the frontier and refinement summary (the artifact
    /// pipeline's txt sink).
    pub fn render(&self) -> String {
        self.artifact().to_txt()
    }
}

/// Explore `solution_index`'s volume × substrate-yield design space on
/// a `grid × grid` screen.
///
/// The production line is planned and compiled **once**; every screen
/// point is a [`ipass_explore::FlowAxis`] patch of the shared compiled
/// program (the substrate-yield axis is a *custom* axis: under a
/// known-good-substrate card the purchase cost pays for the fab's own
/// scrap, so a yield shift moves the carrier cost too — the same
/// expression `production_flow` uses). Promoted points are rebuilt and
/// Monte-Carlo-confirmed with CI-based early stopping.
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning, evaluation or simulation
/// fails.
pub fn design_space(solution_index: usize, grid: usize) -> Result<DesignSpace, ExperimentError> {
    use ipass_explore::{
        FlowAxis, FlowExplorer, Levels, Metric, Objective, RefineOptions, SamplerSpec,
    };
    use ipass_moe::StopRule;
    use ipass_units::Money;

    let (plan, flow) = solution(solution_index)?;
    let area = plan.area().substrate_area;
    let card = cost_inputs(plan.buildup());
    let nre = Money::new(30_000.0);

    let flow = flow.with_nre(nre);
    let carrier = flow.line().carrier().name().to_owned();
    let compiled = flow.compiled()?;

    let y0 = card.substrate_yield.value();
    let yields = Levels::linspace((y0 - 0.08).max(0.5), (y0 + 0.05).min(0.999), grid);
    let substrate_yield_axis = {
        let card = card.clone();
        FlowAxis::custom("substrate yield", yields, move |y, patch| {
            patch_substrate_yield(patch, &carrier, &card, area, Probability::clamped(y))
        })
    };

    let refined = FlowExplorer::new(compiled)
        .axis(FlowAxis::volume(Levels::linspace(1_000.0, 100_000.0, grid)))
        .axis(substrate_yield_axis)
        .objective(Objective::minimize(Metric::FinalCostPerShipped))
        .objective(Objective::maximize(Metric::ShippedFraction))
        .refine(
            &SamplerSpec::Grid,
            &RefineOptions {
                margin: 0.05,
                mc_units: 60_000,
                seed: 2_000,
                stop: Some(StopRule::half_width_95(0.005)),
            },
            |coords| {
                // Rebuild for MC: the same card surgery, through the
                // flow builder instead of the patch table.
                let mut point_card = card.clone();
                let y = Probability::clamped(coords[1]);
                point_card.substrate_yield = y;
                point_card.substrate_fab_yield_per_cm2 =
                    point_card.substrate_fab_yield_per_cm2.map(|_| y);
                Ok(plan
                    .production_flow(area, &point_card)?
                    .with_nre(nre)
                    .with_volume(coords[0].round() as u64))
            },
        )?;
    Ok(DesignSpace {
        label: paper::SOLUTION_NAMES[solution_index],
        nre,
        refined,
    })
}

// ---------------------------------------------------------------------
// §4.4 — the final design check.
// ---------------------------------------------------------------------

/// The paper's closing validation: "an adaptation of solution 4 has been
/// chosen for the final design. The silicon area of the final layout
/// corresponded well with the predicted value."
///
/// We re-enact it: place solution 4's actual component outlines with the
/// bottom-left skyline packer and compare the resulting silicon area to
/// the trivial-placement prediction.
#[derive(Debug, Clone)]
pub struct FinalDesignCheck {
    /// Predicted silicon substrate area (trivial placement, step 3).
    pub predicted_mm2: f64,
    /// Area of the packed layout (skyline packer, with edge clearance).
    pub packed_mm2: f64,
    /// Components placed.
    pub placed: usize,
}

impl FinalDesignCheck {
    /// Packed / predicted ratio (1.0 = perfect prediction).
    pub fn ratio(&self) -> f64 {
        self.packed_mm2 / self.predicted_mm2
    }

    /// Render the comparison.
    pub fn render(&self) -> String {
        format!(
            "§4.4 final design (solution 4): predicted Si {:.0} mm², packed layout {:.0} mm² \
             ({} parts, ratio {:.2}) — \"corresponded well with the predicted value\"\n",
            self.predicted_mm2,
            self.packed_mm2,
            self.placed,
            self.ratio()
        )
    }
}

/// Re-enact the §4.4 layout-vs-prediction check.
///
/// # Errors
///
/// Returns [`ExperimentError`] if planning fails (packing of the GPS set
/// cannot fail: every part fits the predicted substrate width).
pub fn final_design_check() -> Result<FinalDesignCheck, ExperimentError> {
    use ipass_layout::{Rect, SkylinePacker, SubstrateRule};

    let (plan, _) = solution(3)?;
    let predicted = plan.area().substrate_area;

    let mut rects = Vec::new();
    for sel in plan.selections() {
        let side = sel.realization.area().square_side_mm();
        for _ in 0..sel.quantity {
            rects.push(Rect::new(side, side));
        }
    }
    let rule = SubstrateRule::mcm_d_si();
    let usable = predicted.square_side_mm() - 2.0 * rule.edge_clearance_mm();
    let packing = SkylinePacker::new(usable)
        .pack(&rects)
        .expect("every GPS part fits the predicted substrate width");
    let packed_side = packing.height().max(usable) + 2.0 * rule.edge_clearance_mm();
    Ok(FinalDesignCheck {
        predicted_mm2: predicted.mm2(),
        packed_mm2: packed_side * packed_side,
        placed: packing.placements().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_matches_the_papers_argument() {
        let fig = fig1();
        assert_eq!(fig.rows.len(), 6);
        // Bodies shrink monotonically, footprints much more slowly.
        for w in fig.rows.windows(2) {
            assert!(w[1].body_mm2 < w[0].body_mm2);
            assert!(w[1].footprint_mm2 < w[0].footprint_mm2);
        }
        let first = &fig.rows[0];
        let last = &fig.rows[5];
        assert!(first.body_mm2 / last.body_mm2 > 50.0);
        assert!(first.footprint_mm2 / last.footprint_mm2 < 15.0);
        assert!(fig.render().contains("0603"));
    }

    #[test]
    fn table1_synthesis_tracks_paper_values() {
        let t = table1().unwrap();
        for row in &t.rows {
            let rel = (row.measured_mm2 - row.paper_mm2).abs() / row.paper_mm2;
            assert!(
                rel < 0.35,
                "{}: measured {} vs paper {} ({}% off)",
                row.label,
                row.measured_mm2,
                row.paper_mm2,
                (rel * 100.0) as i32
            );
        }
        assert!(t.render().contains("IP-R"));
    }

    #[test]
    fn fig3_reproduces_the_area_ladder() {
        let fig = fig3().unwrap();
        for row in &fig.rows {
            assert!(
                (row.measured_percent - row.paper_percent).abs() < 3.0,
                "{}: measured {:.1}% vs paper {:.0}%",
                row.label,
                row.measured_percent,
                row.paper_percent
            );
        }
        assert!(fig.render().contains("Fig. 3"));
    }

    #[test]
    fn fig5_reproduces_the_cost_ordering() {
        let fig = fig5().unwrap();
        let m: Vec<f64> = fig.rows.iter().map(|r| r.measured_percent).collect();
        // Ordering: 1 < 2 < 4 < 3.
        assert!(m[0] < m[1] && m[1] < m[3] && m[3] < m[2], "{m:?}");
        // Magnitudes within 2.5 points of the paper.
        for row in &fig.rows {
            assert!(
                (row.measured_percent - row.paper_percent).abs() < 2.5,
                "{}: measured {:.1}% vs paper {:.1}%",
                row.label,
                row.measured_percent,
                row.paper_percent
            );
        }
        // Chip cost dominates the direct cost (Fig. 5's callout).
        for row in &fig.rows {
            assert!(row.chip_cost / row.direct_cost > 0.5);
        }
    }

    #[test]
    fn fig6_picks_solution_4() {
        let fig = fig6().unwrap();
        assert!(fig.table.best().name.contains("IP&SMD"));
        let foms: Vec<f64> = fig.table.rows().iter().map(|r| r.fom).collect();
        assert!((foms[0] - 1.0).abs() < 1e-9);
        assert!(
            (foms[1] - paper::FIG6_FOM[1]).abs() < 0.15,
            "sol2 {}",
            foms[1]
        );
        assert!(
            (foms[2] - paper::FIG6_FOM[2]).abs() < 0.15,
            "sol3 {}",
            foms[2]
        );
        assert!(
            (foms[3] - paper::FIG6_FOM[3]).abs() < 0.3,
            "sol4 {}",
            foms[3]
        );
        assert!(fig.render().contains("◀ chosen"));
    }

    #[test]
    fn fig4_model_and_simulation() {
        let fig = fig4(42).unwrap();
        // The generic model's stages (Fig. 4's boxes).
        let joined = fig.stages.join(" | ");
        assert!(joined.contains("chip assembly"));
        assert!(joined.contains("wire bonding"));
        assert!(joined.contains("SMD mounting"));
        assert!(joined.contains("functional test"));
        assert!(joined.contains("scrap"));
        // Conservation.
        assert!((fig.shipped() + fig.scrapped() - fig.started as f64).abs() < 0.5);
        assert!(fig.render().contains("7799"));
    }

    #[test]
    fn final_design_layout_matches_prediction() {
        let check = final_design_check().unwrap();
        assert_eq!(check.placed, 127); // 2 dies + 112 discretes + 13 filter elements
                                       // "Corresponded well": within 25 % of the trivial prediction.
        assert!(
            (0.8..1.25).contains(&check.ratio()),
            "packed/predicted ratio {}",
            check.ratio()
        );
        assert!(check.render().contains("final design"));
    }

    #[test]
    fn sensitivity_ranks_chip_cost_first() {
        let tornado = sensitivity(3).unwrap();
        assert!(!tornado.rows().is_empty());
        // The calibrated chip set dominates everything else.
        assert_eq!(tornado.rows()[0].name, "chip cost ±10 %");
        assert!(tornado.baseline_cost() > 200.0);
        assert!(tornado.render().contains("█"));
    }

    #[test]
    fn sensitivity_matches_rebuilt_cards_on_every_solution() {
        // The reference builds each variant's production flow from a
        // modified cost card and analyzes it. Agreement on all four
        // committed cards also shows that none of them compiles a
        // perturbed parameter away.
        use ipass_units::{Money, Probability};

        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(1.0);
        for index in 0..4 {
            let (plan, _) = solution(index).unwrap();
            let area = plan.area().substrate_area;
            let base = cost_inputs(plan.buildup());
            let cost = |card: &ipass_core::CostInputs| {
                let report = plan.production_flow(area, card).unwrap().analyze().unwrap();
                report.final_cost_per_shipped().units()
            };
            let card_for = |row: &str, high: bool| {
                let pick = |low: f64, hi: f64| if high { hi } else { low };
                let mut card = base.clone();
                match row {
                    "chip cost ±10 %" => {
                        for chip in card.chips.iter_mut() {
                            chip.cost = chip.cost * pick(0.9, 1.1);
                        }
                    }
                    "substrate cost/cm² ±20 %" => {
                        card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * pick(0.8, 1.2);
                    }
                    "substrate yield ∓5 pts" => {
                        let y =
                            Probability::clamped(card.substrate_yield.value() + pick(0.05, -0.05));
                        card.substrate_yield = y;
                        card.substrate_fab_yield_per_cm2 =
                            card.substrate_fab_yield_per_cm2.map(|_| y);
                    }
                    "fault coverage 99.9 → 95 %" => {
                        card.fault_coverage = Probability::clamped(pick(0.999, 0.95));
                    }
                    "test cost ±50 %" => {
                        card.final_test_cost =
                            Money::new(card.final_test_cost.units() * pick(0.5, 1.5));
                    }
                    "packaging cost ±30 %" => {
                        card.packaging = card.packaging.map(|(c, y)| (c * pick(0.7, 1.3), y));
                    }
                    other => panic!("unexpected row {other:?}"),
                }
                card
            };

            let tornado = sensitivity(index).unwrap();
            let solution = index + 1;
            assert_eq!(tornado.baseline_cost(), cost(&base), "solution {solution}");
            let rows = if base.packaging.is_some() { 6 } else { 5 };
            assert_eq!(tornado.rows().len(), rows, "solution {solution}");
            for row in tornado.rows() {
                let name = &row.name;
                let (low, high) = (cost(&card_for(name, false)), cost(&card_for(name, true)));
                assert!(close(row.low_cost, low), "solution {solution}: {name} low");
                assert!(
                    close(row.high_cost, high),
                    "solution {solution}: {name} high"
                );
            }
        }
    }

    #[test]
    fn design_space_refines_volume_yield_grid() {
        let space = design_space(1, 12).unwrap();
        let refined = &space.refined;
        assert_eq!(refined.screen.points.len(), 144);
        assert!(!refined.frontier().members().is_empty());
        // The analytic screen prunes the dominated interior: only the
        // frontier-adjacent band pays for Monte Carlo.
        assert!(
            refined.promoted_fraction() <= 0.30,
            "promoted {:.1} %",
            100.0 * refined.promoted_fraction()
        );
        // Economics sanity on the screen: at fixed substrate yield,
        // larger volume amortizes the mask-set NRE away.
        let p0 = &refined.screen.points[0]; // volume 1 000, lowest yield
        let p_last_vol = &refined.screen.points[132]; // volume 100 000, lowest yield
        assert_eq!(p0.coords[1], p_last_vol.coords[1]);
        assert!(p_last_vol.objectives[0] < p0.objectives[0]);
        // The KGS card makes higher substrate yield strictly better
        // (cheaper carrier *and* more shipped), so the frontier
        // discovers the push-both-axes corner.
        for m in refined.frontier().members() {
            assert_eq!(m.coords[0], 100_000.0, "frontier off the max volume");
        }
        // MC confirms the analytic screen closely (the patch's coupled
        // carrier-cost/yield surgery equals the rebuilt card's).
        for c in &refined.confirmations {
            let analytic = &refined.screen.points[c.index].objectives;
            let rel = (c.objectives[0] - analytic[0]).abs() / analytic[0];
            assert!(
                rel < 0.03,
                "point {}: MC {} vs analytic {}",
                c.index,
                c.objectives[0],
                analytic[0]
            );
        }
        assert!(space.render().contains("design space"));
    }

    #[test]
    fn mc_and_analytic_fig5_agree() {
        let analytic = fig5().unwrap();
        let mc = fig5_monte_carlo(60_000, 7).unwrap();
        for (a, m) in analytic.rows.iter().zip(mc.rows.iter()) {
            assert!(
                (a.measured_percent - m.measured_percent).abs() < 1.0,
                "{}: analytic {:.1}% vs MC {:.1}%",
                a.label,
                a.measured_percent,
                m.measured_percent
            );
        }
    }
}
