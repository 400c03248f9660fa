//! Property test: on randomly generated production lines, the Monte
//! Carlo engine converges to the analytic engine — the strongest
//! correctness check the two independent implementations give each other.

use ipass_moe::{
    Attach, CostCategory, FailAction, Flow, Line, Part, Process, Rework, SimOptions, StepCost,
    Test, YieldModel,
};
use ipass_units::{Money, Probability};
use proptest::prelude::*;

fn p(v: f64) -> Probability {
    Probability::clamped(v)
}

#[derive(Debug, Clone)]
enum StageSpec {
    Process {
        cost: f64,
        yield_: f64,
    },
    Attach {
        part_cost: f64,
        part_yield: f64,
        qty: u32,
    },
    Test {
        cost: f64,
        coverage: f64,
        rework: Option<(f64, f64, u32)>,
    },
}

fn stage_strategy() -> impl Strategy<Value = StageSpec> {
    prop_oneof![
        (0.0f64..5.0, 0.8f64..1.0).prop_map(|(cost, yield_)| StageSpec::Process { cost, yield_ }),
        (0.0f64..20.0, 0.85f64..1.0, 1u32..4).prop_map(|(part_cost, part_yield, qty)| {
            StageSpec::Attach {
                part_cost,
                part_yield,
                qty,
            }
        }),
        (
            0.0f64..3.0,
            0.7f64..1.0,
            proptest::option::of((0.0f64..2.0, 0.2f64..0.9, 1u32..3))
        )
            .prop_map(|(cost, coverage, rework)| StageSpec::Test {
                cost,
                coverage,
                rework
            }),
    ]
}

fn build_flow(carrier_cost: f64, carrier_yield: f64, stages: &[StageSpec]) -> Flow {
    let mut builder = Line::builder(
        "random",
        Part::new("carrier", CostCategory::Substrate)
            .with_cost(StepCost::fixed(Money::new(carrier_cost)))
            .with_incoming_yield(YieldModel::flat(p(carrier_yield))),
    );
    for (i, spec) in stages.iter().enumerate() {
        builder = match spec {
            StageSpec::Process { cost, yield_ } => builder.process(
                Process::new(format!("proc{i}"))
                    .with_cost(StepCost::fixed(Money::new(*cost)))
                    .with_yield(YieldModel::flat(p(*yield_))),
            ),
            StageSpec::Attach {
                part_cost,
                part_yield,
                qty,
            } => builder.attach(
                Attach::new(format!("attach{i}"))
                    .input(
                        Part::new(format!("part{i}"), CostCategory::Chip)
                            .with_cost(StepCost::fixed(Money::new(*part_cost)))
                            .with_incoming_yield(YieldModel::flat(p(*part_yield))),
                        *qty,
                    )
                    .with_cost(StepCost::per_item(Money::new(0.1), *qty)),
            ),
            StageSpec::Test {
                cost,
                coverage,
                rework,
            } => {
                let action = match rework {
                    Some((rc, rs, attempts)) => FailAction::Rework(Rework::new(
                        StepCost::fixed(Money::new(*rc)),
                        p(*rs),
                        *attempts,
                    )),
                    None => FailAction::Scrap,
                };
                builder.test(
                    Test::new(format!("test{i}"))
                        .with_cost(StepCost::fixed(Money::new(*cost)))
                        .with_coverage(p(*coverage))
                        .on_fail(action),
                )
            }
        };
    }
    Flow::new(builder.build().expect("non-empty line"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn mc_converges_to_analytic(
        carrier_cost in 1.0f64..20.0,
        carrier_yield in 0.85f64..1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..6),
        seed in 0u64..1_000,
    ) {
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let analytic = flow.analyze().expect("random line ships something");
        let mc = flow
            .simulate(&SimOptions::new(60_000).with_seed(seed))
            .expect("simulation runs");
        // Shipped fraction: binomial std error ≈ sqrt(p(1-p)/n) < 0.21%.
        prop_assert!(
            (mc.shipped_fraction() - analytic.shipped_fraction()).abs() < 0.012,
            "shipped {} vs {}",
            mc.shipped_fraction(),
            analytic.shipped_fraction()
        );
        // Final cost within 2.5% (cost estimator has higher variance).
        let rel = mc.final_cost_per_shipped().units() / analytic.final_cost_per_shipped().units();
        prop_assert!((rel - 1.0).abs() < 0.025, "cost ratio {rel}");
        // Escapes agree in absolute terms.
        prop_assert!(
            (mc.escape_rate() - analytic.escape_rate()).abs() < 0.01,
            "escapes {} vs {}",
            mc.escape_rate(),
            analytic.escape_rate()
        );
        // Category totals are conserved: Σ categories = total spend.
        let cat_total: Money = analytic.by_category().iter().map(|(_, m)| m).sum();
        prop_assert!(
            (cat_total.units() - analytic.total_spend().units()).abs() < 1e-6,
            "category sum {} vs total {}",
            cat_total,
            analytic.total_spend()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn mc_error_shrinks_as_units_grow(
        carrier_cost in 1.0f64..20.0,
        carrier_yield in 0.85f64..1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..5),
        seed in 0u64..1_000,
    ) {
        // The Monte Carlo estimate converges on the analytic value: the
        // worst shipped-fraction error over the growing unit ladder must
        // come down, ending within the binomial noise floor.
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let analytic = flow.analyze().expect("random line ships something");
        let errors: Vec<f64> = [500u64, 5_000, 50_000, 500_000]
            .iter()
            .map(|&units| {
                let mc = flow
                    .simulate(&SimOptions::new(units).with_seed(seed))
                    .expect("simulation runs");
                (mc.shipped_fraction() - analytic.shipped_fraction()).abs()
            })
            .collect();
        let first = errors.first().copied().unwrap();
        let last = errors.last().copied().unwrap();
        prop_assert!(
            last <= first.max(0.004) && last < 0.004,
            "errors did not converge: {errors:?}"
        );
    }

    #[test]
    fn thread_count_never_changes_the_report(
        carrier_cost in 1.0f64..20.0,
        carrier_yield in 0.85f64..1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..5),
        seed in 0u64..1_000,
    ) {
        // The determinism contract, end to end on random lines: the
        // full CostReport (every floating-point field, the defect
        // pareto, everything) is bit-identical for 1 vs 8 threads.
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let single = flow
            .simulate(&SimOptions::new(20_000).with_seed(seed).with_threads(1))
            .expect("simulation runs");
        let eight = flow
            .simulate(&SimOptions::new(20_000).with_seed(seed).with_threads(8))
            .expect("simulation runs");
        prop_assert_eq!(single, eight);
    }
}
