//! Golden seeded Monte Carlo values for the paper's solution-2 flow.
//!
//! These are the exact `CostReport` figures the PR-1 interpreter
//! produced (captured before the kernel compilation landed). The
//! compiled routing kernel must keep reproducing them bit for bit, for
//! every thread count — seeded results are part of the public contract,
//! not an implementation detail.

use ipass_explore::{FlowAxis, FlowExplorer, Levels, Metric, Objective, SamplerSpec};
use ipass_gps::{experiments::solution, table2::cost_inputs};
use ipass_moe::{analyze_line_reference, simulate_line_reference, CostCategory, Flow, SimOptions};

fn solution2_flow() -> Flow {
    solution(1).unwrap().1
}

#[test]
fn golden_seed3_100k_all_thread_counts() {
    let flow = solution2_flow();
    for threads in [1usize, 2, 4, 8] {
        let s = flow
            .simulate_summary(&SimOptions::new(100_000).with_seed(3).with_threads(threads))
            .unwrap();
        let r = &s.report;
        assert_eq!(r.started(), 100_000.0, "threads {threads}");
        assert_eq!(r.shipped(), 88_271.0);
        assert_eq!(r.good_shipped(), 88_144.0);
        assert_eq!(r.total_spend().units(), 23_972_919.433_580_898);
        assert_eq!(r.shipped_embodied().units(), 21_161_135.713_216_24);
        assert_eq!(r.by_category()[CostCategory::Chip].units(), 19_500_000.0);
        assert_eq!(
            r.by_category()[CostCategory::Substrate].units(),
            1_538_919.433_580_448_9
        );
        assert_eq!(
            r.by_category()[CostCategory::PassiveParts].units(),
            860_000.000_000_019_2
        );
        assert_eq!(
            r.by_category()[CostCategory::Assembly].units(),
            343_999.999_999_998_95
        );
        assert_eq!(
            r.by_category()[CostCategory::Packaging].units(),
            729_999.999_999_997_1
        );
        assert_eq!(r.by_category()[CostCategory::Test].units(), 1_000_000.0);
        assert_eq!(r.by_category()[CostCategory::Other].units(), 0.0);
        assert_eq!(s.scrapped, 11_729.0);
        assert_eq!(s.rework_attempts, 0);
        assert_eq!(s.sub_units_built, 0);
        let pareto = r.defect_pareto();
        assert_eq!(pareto[0].0, "chip assembly/RF chip (incoming)");
        assert_eq!(pareto[0].1, 0.048_64);
        assert_eq!(pareto[1].0, "packaging / mount on laminate");
        assert_eq!(pareto[1].1, 0.029_29);
        assert_eq!(pareto[2].0, "chip assembly");
        assert_eq!(pareto[2].1, 0.020_83);
        assert_eq!(pareto[3].0, "MCM-D(Si) substrate (incoming)");
        assert_eq!(pareto[3].1, 0.009_89);
    }
}

#[test]
fn golden_seed42_50k() {
    let s = solution2_flow()
        .simulate_summary(&SimOptions::new(50_000).with_seed(42))
        .unwrap();
    let r = &s.report;
    assert_eq!(r.started(), 50_000.0);
    assert_eq!(r.shipped(), 44_290.0);
    assert_eq!(r.good_shipped(), 44_233.0);
    assert_eq!(r.total_spend().units(), 11_986_459.716_790_242);
    assert_eq!(r.shipped_embodied().units(), 10_617_606.017_132_798);
    assert_eq!(
        r.by_category()[CostCategory::Substrate].units(),
        769_459.716_790_242_1
    );
    assert_eq!(s.scrapped, 5_710.0);
}

#[test]
fn analytic_ir_matches_line_oracle_on_solution2() {
    // The analytic golden: Flow::analyze now walks the compiled
    // routing program; on the real paper flow it must agree with the
    // retained Line-walking oracle to 1e-12 relative on every field.
    let flow = solution2_flow();
    let ir = flow.analyze().unwrap();
    let oracle = analyze_line_reference(flow.line(), flow.nre(), flow.volume()).unwrap();
    let close = |a: f64, b: f64, what: &str| {
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
            "{what}: IR {a} vs oracle {b}"
        );
    };
    close(ir.shipped_fraction(), oracle.shipped_fraction(), "shipped");
    close(ir.escape_rate(), oracle.escape_rate(), "escapes");
    close(
        ir.total_spend().units(),
        oracle.total_spend().units(),
        "total spend",
    );
    close(
        ir.final_cost_per_shipped().units(),
        oracle.final_cost_per_shipped().units(),
        "final cost",
    );
    for cat in CostCategory::ALL {
        close(
            ir.by_category()[cat].units(),
            oracle.by_category()[cat].units(),
            cat.label(),
        );
    }
    let (ip, op) = (ir.defect_pareto(), oracle.defect_pareto());
    assert_eq!(ip.len(), op.len());
    for ((na, va), (nb, vb)) in ip.iter().zip(op.iter()) {
        assert_eq!(na, nb);
        close(*va, *vb, na);
    }
}

#[test]
fn patched_sweep_matches_rebuilt_sweep_on_solution2() {
    // A one-axis exploration (compile once, overwrite the carrier cost
    // slot per point) must trace the same curve as rebuilding the
    // production flow per point.
    let (plan, flow) = solution(1).unwrap();
    let area = plan.area().substrate_area;
    let base_card = cost_inputs(plan.buildup());
    let carrier = flow.line().carrier().name().to_owned();
    let base_cost = flow.line().carrier().cost().total();
    let xs: Vec<f64> = (0..16).map(|i| 0.5 + i as f64 / 16.0).collect();
    let costs: Vec<f64> = xs.iter().map(|&x| (base_cost * x).units()).collect();

    let sweep = FlowExplorer::new(flow.compiled().unwrap())
        .axis(FlowAxis::unit_cost(
            &carrier,
            Levels::explicit(costs.clone()),
        ))
        .objective(Objective::minimize(Metric::FinalCostPerShipped))
        .explore(&SamplerSpec::Grid)
        .unwrap();
    assert_eq!(xs.len(), sweep.points.len());
    for ((&x, &cost), point) in xs.iter().zip(&costs).zip(&sweep.points) {
        let mut card = base_card.clone();
        card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * x;
        let rebuilt = plan
            .production_flow(area, &card)
            .unwrap()
            .analyze()
            .unwrap();
        assert_eq!(point.coords, [cost]);
        let (ca, cb) = (
            rebuilt.final_cost_per_shipped().units(),
            point.objectives[0],
        );
        assert!(
            (ca - cb).abs() <= 1e-12 * ca.abs().max(1.0),
            "x = {x}: rebuilt {ca} vs patched {cb}"
        );
    }
}

#[test]
fn kernel_matches_interpreter_on_solution2() {
    // The runtime oracle check on the real paper flow (the property
    // tests cover random lines): kernel and interpreter agree on every
    // field, not just the golden subset.
    let flow = solution2_flow();
    for seed in [3u64, 42, 1234] {
        let opts = SimOptions::new(30_000).with_seed(seed);
        let kernel = flow.simulate_summary(&opts).unwrap();
        let oracle =
            simulate_line_reference(flow.line(), flow.nre(), flow.volume(), &opts, None).unwrap();
        assert_eq!(kernel, oracle, "seed {seed}");
    }
}
