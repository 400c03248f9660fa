//! `FlowPatch::figures` against `FlowPatch::analyze` on the paper's four
//! solutions: the label-free walk must read every number, and refuse
//! every patch, exactly as the report does.

use integrated_passives::explore::Metric;
use integrated_passives::gps::experiments;
use integrated_passives::moe::{CompiledFlow, FlowError, FlowPatch, PatchDirective, SlotKind};
use integrated_passives::sim::SimRng;
use integrated_passives::units::{Money, Probability};

const METRICS: [Metric; 6] = [
    Metric::FinalCostPerShipped,
    Metric::DirectCostPerShipped,
    Metric::YieldLossPerShipped,
    Metric::TotalSpend,
    Metric::ShippedFraction,
    Metric::EscapeRate,
];

fn compiled(index: usize) -> CompiledFlow {
    experiments::solution(index).unwrap().1.compiled().unwrap()
}

/// A probability drawn to hit both ends of `[0, 1]` as well as its
/// inside.
fn probability(rng: &mut SimRng) -> Probability {
    match rng.range_usize(0, 4) {
        0 => Probability::ZERO,
        1 => Probability::ONE,
        _ => Probability::clamped(rng.next_f64()),
    }
}

/// Up to five directives on slots drawn from `compiled.slots()`.
fn directives(compiled: &CompiledFlow, rng: &mut SimRng) -> Vec<PatchDirective> {
    let slots: Vec<(String, SlotKind)> = compiled
        .slots()
        .map(|(name, kind)| (name.to_owned(), kind))
        .collect();
    (0..rng.range_usize(0, 6))
        .map(|_| {
            let (slot, kind) = slots[rng.range_usize(0, slots.len())].clone();
            match kind {
                SlotKind::Cost if rng.bernoulli(0.5) => PatchDirective::SetCost {
                    slot,
                    unit_cost: Money::new(rng.range_f64(0.0, 200.0)),
                },
                SlotKind::Cost => PatchDirective::ScaleCost {
                    slot,
                    factor: rng.range_f64(0.0, 3.0),
                },
                SlotKind::Yield => PatchDirective::SetYield {
                    slot,
                    p: probability(rng),
                },
                SlotKind::Coverage => PatchDirective::SetCoverage {
                    slot,
                    p: probability(rng),
                },
            }
        })
        .collect()
}

/// `figures()` and `analyze()` agree: the same error, or every metric
/// bit for bit.
fn assert_agree(patch: &FlowPatch, what: &str) {
    match (patch.figures(), patch.analyze()) {
        (Ok(figures), Ok(report)) => {
            assert_eq!(figures, *report, "{what}");
            for metric in METRICS {
                assert_eq!(
                    metric.of(&figures).to_bits(),
                    metric.of(&report).to_bits(),
                    "{what}: {}",
                    metric.name()
                );
            }
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{what}"),
        (a, b) => panic!("{what}: figures {a:?} but analyze {b:?}"),
    }
}

#[test]
fn figures_read_every_metric_the_report_reads() {
    let mut refused = 0;
    for index in 0..4 {
        let compiled = compiled(index);
        assert_agree(&compiled.patch(), "unpatched");
        for case in 0..200 {
            let mut rng = SimRng::stream(0xF16_0000 + index as u64, case);
            let mut patch = compiled.patch();
            for directive in directives(&compiled, &mut rng) {
                patch.apply(&directive).unwrap();
            }
            if rng.bernoulli(0.25) {
                patch.set_volume(rng.range_u64(1, 1_000_000));
            }
            refused += usize::from(patch.figures().is_err());
            assert_agree(&patch, &format!("solution {} case {case}", index + 1));
        }
    }
    // Zero yields and full coverages starve some flows: the error side
    // is exercised too.
    assert!(refused > 0);
}

#[test]
fn figures_refuse_what_the_report_refuses() {
    let solution2 = compiled(1);
    // Two costs that are each finite but overflow when summed.
    let mut overflow = solution2.patch();
    overflow
        .set_cost("functional test", Money::new(1e308))
        .unwrap()
        .set_cost("wire bonding", Money::new(1e308))
        .unwrap();
    let flow = solution2.name().to_owned();
    assert_eq!(
        overflow.figures(),
        Err(FlowError::NonFiniteCost { flow: flow.clone() })
    );
    assert_agree(&overflow, "overflow");
    // Every substrate defective and every defect caught: nothing ships.
    let mut starved = solution2.patch();
    starved
        .set_yield("MCM-D(Si) substrate", Probability::ZERO)
        .unwrap()
        .set_coverage("functional test", Probability::ONE)
        .unwrap();
    assert_eq!(starved.figures(), Err(FlowError::NothingShipped { flow }));
    assert_agree(&starved, "nothing shipped");
}
