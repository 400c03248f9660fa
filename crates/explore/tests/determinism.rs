//! The explorer's determinism contract: results — screens, frontiers,
//! refinements, Monte Carlo confirmations — are bit-identical for any
//! executor thread count.

use ipass_explore::{
    Exploration, FlowAxis, FlowExplorer, Levels, Metric, Objective, ParetoFrontier, RefineOptions,
    SamplerSpec,
};
use ipass_moe::{CostCategory, Flow, Line, Part, Process, StepCost, StopRule, Test, YieldModel};
use ipass_sim::Executor;
use ipass_units::{Money, Probability};

fn flow(board_cost: f64, process_yield: f64, coverage: f64) -> Flow {
    let line = Line::builder(
        "det",
        Part::new("board", CostCategory::Substrate)
            .with_cost(StepCost::fixed(Money::new(board_cost))),
    )
    .process(
        Process::new("assemble")
            .with_cost(StepCost::fixed(Money::new(1.0)))
            .with_yield(YieldModel::flat(Probability::clamped(process_yield))),
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

fn explorer(executor: Executor) -> FlowExplorer {
    FlowExplorer::new(flow(3.0, 0.93, 0.97).compiled().unwrap())
        .axis(FlowAxis::cost_scale(
            "board",
            Levels::linspace(0.5, 1.5, 12),
        ))
        .axis(FlowAxis::custom(
            "assemble yield",
            Levels::linspace(0.85, 0.99, 12),
            |y, patch| {
                patch.set_yield("assemble", Probability::clamped(y))?;
                Ok(())
            },
        ))
        .objective(Objective::minimize(Metric::FinalCostPerShipped))
        .objective(Objective::maximize(Metric::ShippedFraction))
        .with_executor(executor)
}

/// Run both screens on one fresh explorer.
fn screens(threads: usize) -> (Exploration, ParetoFrontier) {
    let explorer = explorer(Executor::new(threads));
    let screen = explorer.explore(&SamplerSpec::Grid).unwrap();
    let frontier = explorer.screen_frontier(&SamplerSpec::Grid).unwrap();
    (screen, frontier)
}

#[test]
fn screens_are_bit_identical_across_thread_counts() {
    let (baseline, baseline_frontier) = screens(1);
    assert_eq!(baseline.points.len(), 144);
    assert_eq!(baseline.frontier, baseline_frontier);
    for threads in [2, 4, 8] {
        let (run, frontier) = screens(threads);
        assert_eq!(run.points, baseline.points, "threads = {threads}");
        assert_eq!(run.frontier, baseline.frontier, "threads = {threads}");
        assert_eq!(frontier, baseline_frontier, "threads = {threads}");
    }
}

#[test]
fn refinement_is_bit_identical_across_thread_counts() {
    let options = RefineOptions {
        margin: 0.08,
        mc_units: 30_000,
        seed: 23,
        stop: Some(StopRule::half_width_95(0.01)),
    };
    let rebuild = |coords: &[f64]| Ok(flow(3.0 * coords[0], coords[1], 0.97));
    let baseline = explorer(Executor::new(1))
        .refine(&SamplerSpec::Grid, &options, rebuild)
        .unwrap();
    assert!(!baseline.promoted.is_empty());
    // The early-stopping rule actually fires somewhere, so the sweep
    // also proves the stopping point is scheduling-independent.
    assert!(baseline.confirmations.iter().any(|c| c.stopped_early));
    for threads in [2, 4, 8] {
        let run = explorer(Executor::new(threads))
            .refine(&SamplerSpec::Grid, &options, rebuild)
            .unwrap();
        assert_eq!(run.screen.points, baseline.screen.points);
        assert_eq!(run.promoted, baseline.promoted, "threads = {threads}");
        assert_eq!(run.confirmations.len(), baseline.confirmations.len());
        for (a, b) in run.confirmations.iter().zip(&baseline.confirmations) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.objectives, b.objectives, "threads = {threads}");
            assert_eq!(a.units_run, b.units_run);
            assert_eq!(a.stopped_early, b.stopped_early);
        }
    }
}

#[test]
fn promoted_points_simulate_independently_of_the_band() {
    // A promoted point's confirmation depends only on (seed, index),
    // not on which other points happened to be promoted: narrowing the
    // margin must not move the surviving confirmations.
    let wide = explorer(Executor::new(4))
        .refine(
            &SamplerSpec::Grid,
            &RefineOptions {
                margin: 0.2,
                mc_units: 5_000,
                seed: 5,
                stop: None,
            },
            |coords| Ok(flow(3.0 * coords[0], coords[1], 0.97)),
        )
        .unwrap();
    let narrow = explorer(Executor::new(4))
        .refine(
            &SamplerSpec::Grid,
            &RefineOptions {
                margin: 0.0,
                mc_units: 5_000,
                seed: 5,
                stop: None,
            },
            |coords| Ok(flow(3.0 * coords[0], coords[1], 0.97)),
        )
        .unwrap();
    assert!(narrow.promoted.len() < wide.promoted.len());
    // margin = 0 promotes exactly the frontier.
    assert_eq!(narrow.promoted, narrow.frontier().indices());
    for c in &narrow.confirmations {
        let same = wide
            .confirmations
            .iter()
            .find(|w| w.index == c.index)
            .expect("frontier point must be in the wider band");
        assert_eq!(c.objectives, same.objectives);
        assert_eq!(c.units_run, same.units_run);
    }
}
