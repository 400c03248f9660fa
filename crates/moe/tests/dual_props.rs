//! Property tests for the forward-mode dual pass: on randomly
//! generated production lines — nested subassembly lines, rework
//! loops, the low-yield regime the MC suites avoid — the dual
//! gradients must agree with central finite differences of the patched
//! walk, and the dual primal must be *bit-identical* to the plain
//! `f64` walk (the generic walker may not perturb the arithmetic).

use ipass_moe::{
    Attach, CompiledFlow, CostCategory, DualDirection, FailAction, Flow, Line, Part, Process,
    Rework, SlotKind, StepCost, Test, YieldModel,
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
    /// An attach consuming a nested line's output.
    SubLine {
        sub_cost: f64,
        sub_yield: f64,
        tested: bool,
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
        // Yields range down to 0.1: the gradients must stay accurate in
        // the low-yield regime where per-shipped costs blow up.
        (0.0f64..5.0, 0.1f64..=1.0).prop_map(|(cost, yield_)| StageSpec::Process { cost, yield_ }),
        (0.0f64..20.0, 0.5f64..=1.0, 1u32..4).prop_map(|(part_cost, part_yield, qty)| {
            StageSpec::Attach {
                part_cost,
                part_yield,
                qty,
            }
        }),
        (0.5f64..8.0, 0.4f64..1.0, proptest::bool::ANY, 1u32..3).prop_map(
            |(sub_cost, sub_yield, tested, qty)| StageSpec::SubLine {
                sub_cost,
                sub_yield,
                tested,
                qty,
            }
        ),
        (
            0.0f64..3.0,
            0.0f64..=1.0,
            proptest::option::of((0.0f64..2.0, 0.0f64..=1.0, 1u32..4))
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
            StageSpec::SubLine {
                sub_cost,
                sub_yield,
                tested,
                qty,
            } => {
                let mut sub = Line::builder(
                    format!("sub{i}"),
                    Part::new(format!("blank{i}"), CostCategory::Substrate)
                        .with_cost(StepCost::fixed(Money::new(*sub_cost))),
                )
                .process(
                    Process::new(format!("fab{i}")).with_yield(YieldModel::flat(p(*sub_yield))),
                );
                if *tested {
                    sub = sub.test(Test::new(format!("probe{i}")).with_coverage(p(0.95)));
                }
                builder.attach(
                    Attach::new(format!("join{i}"))
                        .input(sub.build().expect("sub-line is non-empty"), *qty)
                        .with_yield(YieldModel::flat(p(0.99))),
                )
            }
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
        .with_nre(Money::new(500.0))
        .with_volume(10_000)
}

/// Every patch slot of the generated flow the test can perturb, with
/// its current value: costs of the carrier, parts, processes and
/// tests; process and part yields; test coverages.
fn perturbable_slots(stages: &[StageSpec], carrier_cost: f64) -> Vec<(String, SlotKind, f64)> {
    let mut slots = vec![("carrier".to_string(), SlotKind::Cost, carrier_cost)];
    for (i, spec) in stages.iter().enumerate() {
        match spec {
            StageSpec::Process { cost, yield_ } => {
                slots.push((format!("proc{i}"), SlotKind::Cost, *cost));
                slots.push((format!("proc{i}"), SlotKind::Yield, *yield_));
            }
            StageSpec::Attach {
                part_cost,
                part_yield,
                ..
            } => {
                slots.push((format!("part{i}"), SlotKind::Cost, *part_cost));
                slots.push((format!("part{i}"), SlotKind::Yield, *part_yield));
            }
            StageSpec::SubLine { sub_cost, .. } => {
                slots.push((format!("blank{i}"), SlotKind::Cost, *sub_cost));
            }
            StageSpec::Test { cost, coverage, .. } => {
                slots.push((format!("test{i}"), SlotKind::Cost, *cost));
                slots.push((format!("test{i}"), SlotKind::Coverage, *coverage));
            }
        }
    }
    slots
}

/// Final cost per shipped with one slot patched to `value`, or `None`
/// if the patch or the walk rejects the point.
fn patched_cost(compiled: &CompiledFlow, slot: &str, kind: SlotKind, value: f64) -> Option<f64> {
    let mut patch = compiled.patch();
    match kind {
        SlotKind::Cost => patch.set_cost(slot, Money::new(value)).ok()?,
        SlotKind::Yield => patch.set_yield(slot, Probability::new(value).ok()?).ok()?,
        SlotKind::Coverage => patch
            .set_coverage(slot, Probability::new(value).ok()?)
            .ok()?,
    };
    Some(patch.analyze().ok()?.final_cost_per_shipped().units())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ∂(final cost per shipped)/∂slot from one dual pass equals the
    /// central finite difference of the patched walk, for every slot
    /// kind, within 1e-6 of the magnitudes involved.
    #[test]
    fn dual_gradients_match_finite_differences_on_random_flows(
        carrier_cost in 1.0f64..20.0,
        carrier_yield in 0.3f64..=1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..6),
    ) {
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let compiled = match flow.compiled() {
            Ok(c) => c,
            Err(_) => return Ok(()), // degenerate line
        };
        let base = match compiled.analyze() {
            Ok(report) => report.final_cost_per_shipped().units(),
            Err(_) => return Ok(()), // nothing ships — no gradients to check
        };

        let mut directions = Vec::new();
        let mut checks = Vec::new();
        for (slot, kind, value) in perturbable_slots(&stages, carrier_cost) {
            // Stay clear of the [0, 1] boundary for probabilities so
            // the central stencil remains inside the domain.
            let h = match kind {
                SlotKind::Cost => 1e-6 * (1.0 + value.abs()),
                SlotKind::Yield | SlotKind::Coverage => {
                    if !(0.01..=0.99).contains(&value) {
                        continue;
                    }
                    1e-6
                }
            };
            // Some generated slots collide across stages (ambiguous
            // names never occur here, but a sub-line may fail to ship
            // under perturbation); skip anything the patched walk
            // rejects.
            let (Some(hi), Some(lo)) = (
                patched_cost(&compiled, &slot, kind, value + h),
                patched_cost(&compiled, &slot, kind, value - h),
            ) else {
                continue;
            };
            directions.push(DualDirection::new().with(&slot, kind, 1.0));
            checks.push((slot, (hi - lo) / (2.0 * h)));
        }
        prop_assume!(!directions.is_empty());

        let dual = compiled.analyze_duals(&directions).expect("base point ships");
        for ((slot, fd), gradient) in checks.iter().zip(&dual.gradients) {
            let g = gradient.final_cost_per_shipped;
            let tol = 1e-6 * fd.abs().max(g.abs()).max(base).max(1.0);
            prop_assert!(
                (g - fd).abs() <= tol,
                "slot {slot}: dual {g} vs FD {fd} (base {base})"
            );
        }
    }

    /// The dual primal is bit-identical to the plain `f64` walk for
    /// every program the generator produces — the generic walker must
    /// execute the exact same float sequence.
    #[test]
    fn dual_primal_is_bit_identical_to_the_plain_walk(
        carrier_cost in 1.0f64..20.0,
        carrier_yield in 0.0f64..=1.0,
        stages in proptest::collection::vec(stage_strategy(), 1..6),
    ) {
        let flow = build_flow(carrier_cost, carrier_yield, &stages);
        let compiled = match flow.compiled() {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };
        let directions = [DualDirection::new().with("carrier", SlotKind::Cost, 1.0)];
        match (compiled.analyze(), compiled.analyze_duals(&directions)) {
            (Ok(plain), Ok(dual)) => {
                let bits = |v: f64| v.to_bits();
                prop_assert_eq!(
                    bits(dual.report.final_cost_per_shipped().units()),
                    bits(plain.final_cost_per_shipped().units())
                );
                prop_assert_eq!(
                    bits(dual.report.total_spend().units()),
                    bits(plain.total_spend().units())
                );
                prop_assert_eq!(bits(dual.report.shipped()), bits(plain.shipped()));
                prop_assert_eq!(bits(dual.report.good_shipped()), bits(plain.good_shipped()));
                for cat in CostCategory::ALL {
                    prop_assert_eq!(
                        bits(dual.report.by_category()[cat].units()),
                        bits(plain.by_category()[cat].units()),
                        "category {}", cat.label()
                    );
                }
                prop_assert_eq!(dual.report, plain);
            }
            // Degenerate flows must fail identically through both paths.
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "walks disagree on failure: plain {:?} vs dual {:?}",
                a.map(|r| r.shipped()),
                b.map(|r| r.report.shipped())
            ),
        }
    }
}
