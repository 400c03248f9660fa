//! Cross-engine and reproducibility guarantees of the MOE cost model on
//! the real GPS flows.

use integrated_passives::gps::experiments;
use integrated_passives::moe::{Flow, SimOptions};

fn gps_flow(index: usize) -> Flow {
    experiments::solution(index).unwrap().1
}

#[test]
fn monte_carlo_converges_to_analytic_on_every_solution() {
    for i in 0..4 {
        let flow = gps_flow(i);
        let analytic = flow.analyze().unwrap();
        let mc = flow
            .simulate(&SimOptions::new(150_000).with_seed(99))
            .unwrap();
        let rel = mc.final_cost_per_shipped() / analytic.final_cost_per_shipped();
        assert!(
            (rel - 1.0).abs() < 0.01,
            "solution {}: MC/analytic = {rel}",
            i + 1
        );
        assert!(
            (mc.shipped_fraction() - analytic.shipped_fraction()).abs() < 0.005,
            "solution {}: shipped {} vs {}",
            i + 1,
            mc.shipped_fraction(),
            analytic.shipped_fraction()
        );
    }
}

#[test]
fn seeded_simulation_is_deterministic() {
    let flow = gps_flow(1);
    let opts = SimOptions::new(30_000).with_seed(123);
    let a = flow.simulate(&opts).unwrap();
    let b = flow.simulate(&opts).unwrap();
    assert_eq!(a, b);
}

#[test]
fn threaded_simulation_partitions_exactly() {
    let flow = gps_flow(3);
    let single = flow
        .simulate_summary(&SimOptions::new(40_000).with_seed(5))
        .unwrap();
    let multi = flow
        .simulate_summary(&SimOptions::new(40_000).with_seed(5).with_threads(4))
        .unwrap();
    // Unit conservation holds in both.
    assert!((single.report.shipped() + single.scrapped - 40_000.0).abs() < 0.5);
    assert!((multi.report.shipped() + multi.scrapped - 40_000.0).abs() < 0.5);
    // Statistically equivalent results (different RNG streams).
    let rel = multi.report.final_cost_per_shipped() / single.report.final_cost_per_shipped();
    assert!((rel - 1.0).abs() < 0.02, "threaded rel {rel}");
}

#[test]
fn escapes_are_bounded_by_coverage() {
    // Fault coverage 99 % caps escapes at ~1 % of the defective stream.
    for i in 0..4 {
        let report = gps_flow(i).analyze().unwrap();
        assert!(
            report.escape_rate() < 0.01,
            "solution {}: escape rate {}",
            i + 1,
            report.escape_rate()
        );
    }
}

#[test]
fn defect_pareto_blames_the_right_stages() {
    // Solution 2: the untested RF die (5 % fallout) dominates the pareto.
    let report = gps_flow(1).analyze().unwrap();
    let pareto = report.defect_pareto();
    assert!(!pareto.is_empty());
    assert!(
        pareto[0].0.contains("RF chip"),
        "top defect source is {}",
        pareto[0].0
    );
    // Solution 3: the 90 % substrate takes over.
    let report = gps_flow(2).analyze().unwrap();
    assert!(
        report.defect_pareto()[0].0.contains("substrate"),
        "top defect source is {}",
        report.defect_pareto()[0].0
    );
}

#[test]
fn eq1_accounting_identity() {
    // direct + yield loss = total spend per shipped, on both engines.
    for i in 0..4 {
        let flow = gps_flow(i);
        for report in [
            flow.analyze().unwrap(),
            flow.simulate(&SimOptions::new(50_000).with_seed(8))
                .unwrap(),
        ] {
            let lhs = report.direct_cost_per_shipped() + report.yield_loss_per_shipped();
            let rhs = report.total_spend() / report.shipped();
            assert!(
                (lhs.units() - rhs.units()).abs() < 1e-6,
                "solution {}: {lhs} vs {rhs}",
                i + 1
            );
        }
    }
}
