//! A tour of the MOE cost modeling engine (the paper's Fig. 4): Monte
//! Carlo vs analytic evaluation, defect pareto, rework loops, nested
//! known-good-substrate lines, and NRE amortization.
//!
//! Run with `cargo run --example moe_production`.

use integrated_passives::explore::{
    FlowAxis, FlowExplorer, Levels, Metric, Objective, SamplerSpec,
};
use integrated_passives::gps::experiments;
use integrated_passives::moe::{
    Attach, CostCategory, FailAction, Flow, Line, Part, Process, Rework, SimOptions, StepCost,
    Test, YieldModel,
};
use integrated_passives::units::{Money, Probability};

fn p(v: f64) -> Probability {
    Probability::clamped(v)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The paper's Fig. 4 model, simulated. --------------------------
    let fig4 = experiments::fig4(42)?;
    println!("{}", fig4.render());
    println!("{}", fig4.summary.report.render());

    // --- Analytic vs Monte Carlo on the same flow. ---------------------
    println!("== engine agreement ==");
    let flow = demo_flow()?;
    let analytic = flow.analyze()?;
    for units in [1_000u64, 10_000, 100_000] {
        let mc = flow.simulate(&SimOptions::new(units).with_seed(7))?;
        println!(
            "MC {units:>7} units: final {} vs analytic {} ({:+.3} %)",
            mc.final_cost_per_shipped(),
            analytic.final_cost_per_shipped(),
            (mc.final_cost_per_shipped() / analytic.final_cost_per_shipped() - 1.0) * 100.0
        );
    }

    // --- Rework: recover failed modules instead of scrapping. ----------
    println!("\n== rework ablation ==");
    let scrap = demo_flow()?.analyze()?;
    let rework = demo_flow_with(FailAction::Rework(Rework::new(
        StepCost::fixed(Money::new(1.0)),
        p(0.65),
        2,
    )))?
    .analyze()?;
    println!(
        "scrap-on-fail: {} | rework(65 %, ≤2 attempts): {} | shipped {:.2} % → {:.2} %",
        scrap.final_cost_per_shipped(),
        rework.final_cost_per_shipped(),
        scrap.shipped_fraction() * 100.0,
        rework.shipped_fraction() * 100.0
    );

    // --- Known-good substrate as a nested line. -------------------------
    println!("\n== nested known-good-substrate line ==");
    let kgs = kgs_flow()?.analyze()?;
    println!(
        "module with pre-tested substrate: final {}, yield loss {} (substrate scrap booked)",
        kgs.final_cost_per_shipped(),
        kgs.yield_loss_per_shipped()
    );
    for (label, share) in kgs.defect_pareto() {
        println!("  defect source {label:<38} {:.2} %", share * 100.0);
    }

    // --- NRE amortization: when does an IP mask set pay off? ------------
    println!("\n== NRE amortization (50 000-unit mask set) ==");
    let nre_flow = demo_flow()?.with_nre(Money::new(50_000.0));
    let sweep = FlowExplorer::new(nre_flow.compiled()?)
        .axis(FlowAxis::volume(Levels::explicit([1e3, 1e4, 1e5, 1e6])))
        .objective(Objective::minimize(Metric::FinalCostPerShipped))
        .explore(&SamplerSpec::Grid)?;
    for pt in &sweep.points {
        println!(
            "volume {:>9}: final cost/unit {:.2}",
            pt.coords[0] as u64, pt.objectives[0]
        );
    }
    Ok(())
}

fn demo_flow() -> Result<Flow, integrated_passives::moe::FlowError> {
    demo_flow_with(FailAction::Scrap)
}

fn demo_flow_with(on_fail: FailAction) -> Result<Flow, integrated_passives::moe::FlowError> {
    let substrate = Part::new("substrate", CostCategory::Substrate)
        .with_cost(StepCost::fixed(Money::new(12.0)))
        .with_incoming_yield(YieldModel::flat(p(0.95)));
    let die = Part::new("die", CostCategory::Chip)
        .with_cost(StepCost::fixed(Money::new(60.0)))
        .with_incoming_yield(YieldModel::flat(p(0.97)));
    Line::builder("demo module", substrate)
        .attach(
            Attach::new("die attach")
                .input(die, 1)
                .with_cost(StepCost::fixed(Money::new(0.1)))
                .with_yield(YieldModel::percent(99.0)),
        )
        .process(
            Process::new("encapsulation")
                .with_cost(StepCost::fixed(Money::new(1.5)))
                .with_yield(YieldModel::percent(98.0))
                .with_category(CostCategory::Packaging),
        )
        .test(
            Test::new("final test")
                .with_cost(StepCost::fixed(Money::new(2.0)))
                .with_coverage(p(0.98))
                .on_fail(on_fail),
        )
        .build()
        .map(Flow::new)
}

fn kgs_flow() -> Result<Flow, integrated_passives::moe::FlowError> {
    // The substrate is fabricated and probed in its own nested line;
    // only passing substrates reach module assembly.
    let substrate_line = Line::builder(
        "substrate fab",
        Part::new("raw wafer share", CostCategory::Substrate)
            .with_cost(StepCost::fixed(Money::new(6.0))),
    )
    .process(
        Process::new("thin-film deposition")
            .with_cost(StepCost::fixed(Money::new(4.0)))
            .with_yield(YieldModel::percent(88.0))
            .with_category(CostCategory::Substrate),
    )
    .test(
        Test::new("substrate probe")
            .with_cost(StepCost::fixed(Money::new(0.5)))
            .with_coverage(p(0.995)),
    )
    .build()?;

    let die = Part::new("die", CostCategory::Chip)
        .with_cost(StepCost::fixed(Money::new(60.0)))
        .with_incoming_yield(YieldModel::flat(p(0.97)));
    Line::builder(
        "module on KGS",
        Part::new("carrier tray", CostCategory::Other),
    )
    .attach(
        Attach::new("substrate + die assembly")
            .input(substrate_line, 1)
            .input(die, 1)
            .with_cost(StepCost::fixed(Money::new(0.2)))
            .with_yield(YieldModel::percent(99.0)),
    )
    .test(
        Test::new("module test")
            .with_cost(StepCost::fixed(Money::new(2.0)))
            .with_coverage(p(0.98)),
    )
    .build()
    .map(Flow::new)
}
