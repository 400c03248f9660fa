//! Acceptance tests for `ipass-explore` on the golden solution-2 flow:
//! the adaptive refiner confirms at most 30 % of the grid by Monte
//! Carlo while reproducing the full-grid Pareto frontier exactly, and
//! every result is bit-identical across executor thread counts.

use integrated_passives::core::BuildUpPlan;
use integrated_passives::explore::{
    FlowAxis, FlowExplorer, Levels, Metric, Objective, RefineOptions, SamplerSpec,
};
use integrated_passives::gps::{experiments, table2::cost_inputs};
use integrated_passives::moe::{Executor, Flow};
use integrated_passives::units::Probability;

const SIDE: usize = 32;

fn solution2() -> (BuildUpPlan, Flow) {
    experiments::solution(1).unwrap()
}

fn explorer(flow: &Flow, executor: Executor) -> FlowExplorer {
    let carrier = flow.line().carrier().name().to_owned();
    FlowExplorer::new(flow.compiled().unwrap())
        .axis(FlowAxis::cost_scale(
            carrier,
            Levels::linspace(0.5, 1.5, SIDE),
        ))
        .axis(FlowAxis::coverage(
            "functional test",
            Levels::linspace(0.9, 0.999, SIDE),
        ))
        .objective(Objective::minimize(Metric::FinalCostPerShipped))
        .objective(Objective::minimize(Metric::EscapeRate))
        .with_executor(executor)
}

#[test]
fn refiner_reproduces_the_full_grid_frontier_with_sparse_mc() {
    let (plan, flow) = solution2();
    let area = plan.area().substrate_area;
    let base_card = cost_inputs(plan.buildup());

    let explorer = explorer(&flow, Executor::new(4));
    // The reference: every grid point evaluated, frontier extracted.
    let full = explorer.explore(&SamplerSpec::Grid).unwrap();
    assert_eq!(full.points.len(), SIDE * SIDE);

    let refined = explorer
        .refine(
            &SamplerSpec::Grid,
            &RefineOptions {
                margin: 0.05,
                mc_units: 20_000,
                seed: 99,
                stop: None,
            },
            |coords| {
                let mut card = base_card.clone();
                card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * coords[0];
                card.fault_coverage = Probability::clamped(coords[1]);
                plan.production_flow(area, &card)
            },
        )
        .unwrap();

    // The analytic screen reproduces the full-grid Pareto frontier
    // exactly — same member points, same objective values.
    assert_eq!(refined.frontier(), &full.frontier);
    assert_eq!(refined.frontier().indices(), full.frontier.indices());

    // …while at most 30 % of the grid pays for Monte Carlo.
    assert!(
        refined.promoted_fraction() <= 0.30,
        "promoted {:.1} % of the grid",
        100.0 * refined.promoted_fraction()
    );
    // Every frontier member got its MC confirmation, and the confirmed
    // costs sit within Monte Carlo noise of the analytic screen.
    for index in full.frontier.indices() {
        let c = refined
            .confirmations
            .iter()
            .find(|c| c.index == index)
            .expect("frontier member must be promoted");
        let analytic = &refined.screen.points[index].objectives;
        let rel = (c.objectives[0] - analytic[0]).abs() / analytic[0];
        assert!(
            rel < 0.03,
            "point {index}: MC cost {} vs analytic {}",
            c.objectives[0],
            analytic[0]
        );
    }
}

#[test]
fn golden_flow_exploration_is_bit_identical_across_thread_counts() {
    let (plan, flow) = solution2();
    let area = plan.area().substrate_area;
    let base_card = cost_inputs(plan.buildup());
    let refine = |threads: usize| {
        explorer(&flow, Executor::new(threads))
            .refine(
                &SamplerSpec::Grid,
                &RefineOptions {
                    margin: 0.04,
                    mc_units: 5_000,
                    seed: 3,
                    stop: None,
                },
                |coords| {
                    let mut card = base_card.clone();
                    card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * coords[0];
                    card.fault_coverage = Probability::clamped(coords[1]);
                    plan.production_flow(area, &card)
                },
            )
            .unwrap()
    };
    let baseline = refine(1);
    let baseline_frontier = explorer(&flow, Executor::new(1))
        .screen_frontier(&SamplerSpec::Grid)
        .unwrap();
    assert_eq!(&baseline_frontier, baseline.frontier());
    for threads in [2, 4, 8] {
        let run = refine(threads);
        assert_eq!(
            run.screen.points, baseline.screen.points,
            "threads = {threads}"
        );
        assert_eq!(run.promoted, baseline.promoted, "threads = {threads}");
        for (a, b) in run.confirmations.iter().zip(&baseline.confirmations) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.objectives, b.objectives, "threads = {threads}");
            assert_eq!(a.units_run, b.units_run);
        }
        assert_eq!(
            explorer(&flow, Executor::new(threads))
                .screen_frontier(&SamplerSpec::Grid)
                .unwrap(),
            baseline_frontier,
            "threads = {threads}"
        );
    }
}
