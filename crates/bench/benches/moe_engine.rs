//! MOE engine performance: Monte Carlo scaling, threading, analytic
//! evaluation and rework loops on the real solution-2 flow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ipass_gps::{experiments::solution, table2::cost_inputs};
use ipass_moe::{
    CostCategory, FailAction, Flow, Line, Part, Process, Rework, SimOptions, StepCost, Test,
    YieldModel,
};
use ipass_units::{Money, Probability};
use std::hint::black_box;

fn solution2_flow() -> Flow {
    solution(1).unwrap().1
}

fn bench_mc_scaling(c: &mut Criterion) {
    // Lane width pinned to 1: this group is the *scalar* kernel
    // baseline the batched `mc_units_batch` group is gated against.
    let flow = solution2_flow();
    let mut group = c.benchmark_group("mc_units");
    group.threads(1);
    group.lane_width(1);
    for units in [1_000u64, 10_000, 100_000] {
        group.throughput(Throughput::Elements(units));
        group.bench_with_input(BenchmarkId::from_parameter(units), &units, |b, &units| {
            b.iter(|| {
                black_box(
                    flow.simulate(&SimOptions::new(units).with_seed(3).with_lane_width(1))
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_mc_batch(c: &mut Criterion) {
    // The batched lane kernel at the default width, same flow and seed
    // as `mc_units` — the reports are bit-identical; only the walk
    // order (lane-of-W per op) differs.
    let flow = solution2_flow();
    let width = ipass_moe::effective_lane_width(ipass_moe::DEFAULT_LANE_WIDTH);
    let mut group = c.benchmark_group("mc_units_batch");
    group.threads(1);
    group.lane_width(width);
    for units in [1_000u64, 10_000, 100_000] {
        group.throughput(Throughput::Elements(units));
        group.bench_with_input(BenchmarkId::from_parameter(units), &units, |b, &units| {
            b.iter(|| black_box(flow.simulate(&SimOptions::new(units).with_seed(3)).unwrap()))
        });
    }
    group.finish();
}

/// Probe overhead on the lane hot path: the same 100k-unit batched run
/// with the deterministic-plane probe off vs on. A disabled probe must
/// compile to nothing (the `off` case is the `mc_units_batch/100000`
/// shape); the `on` case pays a per-unit counter pass at lane end
/// (~1.45x measured) and is gated in CI to stay within 2x of `off`.
/// The probed run's exact draw count is attached to the baseline as
/// `draws_per_elem`.
fn bench_mc_probe(c: &mut Criterion) {
    use ipass_moe::Probe;

    let flow = solution2_flow();
    let width = ipass_moe::effective_lane_width(ipass_moe::DEFAULT_LANE_WIDTH);
    const UNITS: u64 = 100_000;
    let probed = flow
        .simulate_summary(&SimOptions::new(UNITS).with_seed(3).with_probe(Probe::ON))
        .unwrap();
    let stats = probed.stats.expect("probed run carries stats");

    let mut group = c.benchmark_group("mc_probe_100k");
    group.threads(1);
    group.lane_width(width);
    group.throughput(Throughput::Elements(UNITS));
    group.bench_function("off", |b| {
        b.iter(|| black_box(flow.simulate(&SimOptions::new(UNITS).with_seed(3)).unwrap()))
    });
    group.draws_per_elem(stats.draws as f64 / stats.units as f64);
    group.bench_function("on", |b| {
        b.iter(|| {
            black_box(
                flow.simulate_summary(&SimOptions::new(UNITS).with_seed(3).with_probe(Probe::ON))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_mc_lane_widths(c: &mut Criterion) {
    // Width sweep at fixed unit count: how far the SoA lane loops
    // vectorize on this host. Width 1 is the scalar fallback path.
    let flow = solution2_flow();
    let mut group = c.benchmark_group("mc_lanes_100k");
    group.threads(1);
    group.throughput(Throughput::Elements(100_000));
    for width in [1usize, 2, 4, 8, 16, 32, 64] {
        group.lane_width(width);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, &width| {
            b.iter(|| {
                black_box(
                    flow.simulate(&SimOptions::new(100_000).with_seed(3).with_lane_width(width))
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_mc_threads(c: &mut Criterion) {
    // The deterministic executor: the report is bit-identical across
    // this whole sweep; only the wall clock changes.
    let flow = solution2_flow();
    let mut group = c.benchmark_group("mc_threads_100k");
    group.throughput(Throughput::Elements(100_000));
    for threads in [1usize, 2, 4, 8] {
        group.threads(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    black_box(
                        flow.simulate(&SimOptions::new(100_000).with_seed(3).with_threads(threads))
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_analytic(c: &mut Criterion) {
    let flow = solution2_flow();
    c.bench_function("analytic_solution2", |b| {
        b.iter(|| black_box(flow.analyze().unwrap()))
    });
}

/// The design-space explorer against the naive rebuild-per-point loop:
/// a 1 024-point (32 × 32) substrate-cost × test-coverage grid of the
/// real solution-2 flow, reduced to its Pareto frontier over
/// *(final cost ↓, escape rate ↓)*.
///
/// * `rebuild` — the pre-subsystem shape: build and compile a fresh
///   production flow per grid point, then extract the frontier.
/// * `screen` — `ipass-explore`: compile once, patch the op vector per
///   point, chunked map-reduce straight to the frontier.
/// * `refine` — `screen` plus Monte Carlo confirmation of the
///   frontier-adjacent band (the adaptive analytic→MC pipeline).
fn bench_explore_frontier(c: &mut Criterion) {
    use ipass_explore::{
        DesignPoint, FlowAxis, FlowExplorer, Levels, Metric, Objective, RefineOptions, SamplerSpec,
    };

    const SIDE: usize = 32;
    let (plan, flow) = solution(1).unwrap();
    let area = plan.area().substrate_area;
    let base_card = cost_inputs(plan.buildup());
    let carrier = flow.line().carrier().name().to_owned();

    let scales = Levels::linspace(0.5, 1.5, SIDE);
    let coverages = Levels::linspace(0.9, 0.999, SIDE);
    let explorer = FlowExplorer::new(flow.compiled().unwrap())
        .axis(FlowAxis::cost_scale(&carrier, scales.clone()))
        .axis(FlowAxis::coverage("functional test", coverages.clone()))
        .objective(Objective::minimize(Metric::FinalCostPerShipped))
        .objective(Objective::minimize(Metric::EscapeRate))
        // Serial on both sides: the comparison is work per point.
        .with_executor(ipass_moe::Executor::serial());

    let mut group = c.benchmark_group("explore_frontier");
    group.throughput(Throughput::Elements((SIDE * SIDE) as u64));
    group.bench_function("rebuild", |b| {
        b.iter(|| {
            // The naive loop: one full flow build + compile + analyze
            // per point, frontier extracted afterwards.
            let mut points = Vec::with_capacity(SIDE * SIDE);
            for i in 0..SIDE {
                for j in 0..SIDE {
                    let mut card = base_card.clone();
                    card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * scales.level(i);
                    card.fault_coverage = Probability::clamped(coverages.level(j));
                    let report = plan
                        .production_flow(area, &card)
                        .unwrap()
                        .analyze()
                        .unwrap();
                    points.push(DesignPoint {
                        index: i * SIDE + j,
                        coords: vec![scales.level(i), coverages.level(j)],
                        objectives: vec![
                            report.final_cost_per_shipped().units(),
                            report.escape_rate(),
                        ],
                    });
                }
            }
            black_box(ipass_explore::ParetoFrontier::extract(
                vec![
                    ipass_explore::Sense::Minimize,
                    ipass_explore::Sense::Minimize,
                ],
                points,
            ))
        })
    });
    group.bench_function("screen", |b| {
        b.iter(|| black_box(explorer.screen_frontier(&SamplerSpec::Grid).unwrap()))
    });
    let refine_options = RefineOptions {
        margin: 0.05,
        mc_units: 2_000,
        seed: 7,
        stop: None,
    };
    group.bench_function("refine", |b| {
        b.iter(|| {
            black_box(
                explorer
                    .refine(&SamplerSpec::Grid, &refine_options, |coords| {
                        let mut card = base_card.clone();
                        card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * coords[0];
                        card.fault_coverage = Probability::clamped(coords[1]);
                        plan.production_flow(area, &card)
                    })
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// The headline dual-number comparison: a 12-row cost tornado of the
/// real solution-2 flow, evaluated two ways.
///
/// * `dual_pass` — one K=12 forward-mode walk
///   ([`Tornado::evaluate_gradients`]): every row is an exact gradient
///   extrapolation off a single analytic evaluation.
/// * `patched_batch` — the pre-dual shape: `1 + 2·12` patched cohort
///   walks (the baseline, then every low/high [`FlowPatch`] through
///   [`Executor::try_map`]), assembled with [`Tornado::from_rows`];
///   serial executor so the comparison is work per chart, not parallel
///   speedup.
///
/// For pure cost rows the two charts are numerically identical (final
/// cost is affine in every cost slot), so this measures the same
/// answer computed 25 walks vs 1.
fn bench_sensitivity_duals(c: &mut Criterion) {
    use ipass_moe::{
        DualDirection, Executor, FlowError, FlowPatch, SlotKind, Tornado, TornadoDirection,
        TornadoRow,
    };

    let flow = solution2_flow();
    let compiled = flow.compiled().unwrap();
    // 12 rows: every single cost slot of the program (9 on the
    // solution-2 flow) plus three composite multi-slot rows ("all
    // chips", "board-level", "everything"), each a ±10 % scale.
    let singles: Vec<Vec<String>> = compiled
        .slots()
        .filter(|(_, kind)| *kind == SlotKind::Cost)
        .map(|(name, _)| vec![name.to_owned()])
        .collect();
    let composites = vec![
        vec![
            "chip assembly/RF chip".to_string(),
            "chip assembly/DSP correlator".to_string(),
            "SMD mounting/SMD kit".to_string(),
        ],
        vec![
            "MCM-D(Si) substrate".to_string(),
            "packaging / mount on laminate".to_string(),
        ],
        singles.iter().map(|s| s[0].clone()).collect(),
    ];
    let rows: Vec<Vec<String>> = singles.into_iter().chain(composites).collect();
    assert_eq!(rows.len(), 12, "the solution-2 tornado is 12 rows");

    // Chart specifications are built once — both strategies take their
    // inputs by reference, so the bench measures the per-chart
    // evaluation work, not one-time spec assembly.
    let directions: Vec<TornadoDirection<'_>> = rows
        .iter()
        .map(|slots| {
            let mut direction = DualDirection::new();
            for slot in slots {
                let unit = compiled.slot_unit_cost(slot).unwrap().units();
                direction = direction.with(slot, SlotKind::Cost, unit);
            }
            TornadoDirection {
                name: &slots[0],
                direction,
                low: -0.1,
                high: 0.1,
            }
        })
        .collect();
    // The low/high variants, row by row: [low₀, high₀, low₁, …].
    let variants: Vec<FlowPatch> = rows
        .iter()
        .flat_map(|slots| {
            [0.9, 1.1].map(|factor| {
                let mut patch = compiled.patch();
                for slot in slots {
                    patch.scale_cost(slot, factor).unwrap();
                }
                patch
            })
        })
        .collect();

    let serial = Executor::serial();
    let mut group = c.benchmark_group("sensitivity_duals");
    group.throughput(Throughput::Elements(rows.len() as u64));
    group.bench_function("dual_pass", |b| {
        b.iter(|| black_box(Tornado::evaluate_gradients(&compiled, &directions).unwrap()))
    });
    group.bench_function("patched_batch", |b| {
        b.iter(|| {
            let baseline = compiled.analyze().unwrap().final_cost_per_shipped().units();
            let costs = serial
                .try_map(&variants, |_, patch| {
                    Ok::<f64, FlowError>(patch.analyze()?.final_cost_per_shipped().units())
                })
                .unwrap();
            let rows = rows
                .iter()
                .zip(costs.chunks_exact(2))
                .map(|(slots, pair)| TornadoRow {
                    name: slots[0].clone(),
                    low_cost: pair[0],
                    high_cost: pair[1],
                })
                .collect();
            black_box(Tornado::from_rows(baseline, rows))
        })
    });
    group.finish();
}

fn rework_flow(max_attempts: u32) -> Flow {
    let line = Line::builder(
        "rework-bench",
        Part::new("carrier", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(5.0))),
    )
    .process(
        Process::new("assemble")
            .with_cost(StepCost::fixed(Money::new(1.0)))
            .with_yield(YieldModel::percent(85.0)),
    )
    .test(
        Test::new("test")
            .with_cost(StepCost::fixed(Money::new(0.5)))
            .with_coverage(Probability::clamped(0.98))
            .on_fail(FailAction::Rework(Rework::new(
                StepCost::fixed(Money::new(0.8)),
                Probability::clamped(0.6),
                max_attempts,
            ))),
    )
    .build()
    .unwrap();
    Flow::new(line)
}

fn bench_rework(c: &mut Criterion) {
    let mut group = c.benchmark_group("rework_mc_20k");
    // 20 000 routed units per iteration: per-element normalization so
    // bench_gate can reason about these cases too.
    group.throughput(Throughput::Elements(20_000));
    for attempts in [0u32, 1, 3] {
        let flow = if attempts == 0 {
            // plain scrap
            Flow::new(
                Line::builder(
                    "scrap-bench",
                    Part::new("carrier", CostCategory::Substrate)
                        .with_cost(StepCost::fixed(Money::new(5.0))),
                )
                .process(
                    Process::new("assemble")
                        .with_cost(StepCost::fixed(Money::new(1.0)))
                        .with_yield(YieldModel::percent(85.0)),
                )
                .test(
                    Test::new("test")
                        .with_cost(StepCost::fixed(Money::new(0.5)))
                        .with_coverage(Probability::clamped(0.98)),
                )
                .build()
                .unwrap(),
            )
        } else {
            rework_flow(attempts)
        };
        group.bench_with_input(BenchmarkId::from_parameter(attempts), &flow, |b, flow| {
            b.iter(|| {
                black_box(
                    flow.simulate(&SimOptions::new(20_000).with_seed(9))
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = engine;
    config = fast();
    targets =
    bench_mc_scaling,
    bench_mc_batch,
    bench_mc_probe,
    bench_mc_lane_widths,
    bench_mc_threads,
    bench_analytic,
    bench_explore_frontier,
    bench_sensitivity_duals,
    bench_rework
);

fn fast() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_secs(1))
}

criterion_main!(engine);
