//! `explore_frontier`: `FlowExplorer::refine` on solution 2 at the
//! default executor width, in fresh processes.
//!
//! The seeded grid is carrier cost scale × functional-test coverage,
//! the space of `gps::experiments::design_space` and of the
//! `explore_frontier` criterion group. Every exploration is digested
//! (frontier, promoted set, confirmations) and must match the digest of
//! one `Executor::serial()` reference computed by the parent.

use crate::stats;
use crate::sys;
use crate::trace::Tracer;
use crate::{run_children, Outcome, Paths, Rng, Run};
use integrated_passives::core::{BuildUp, BuildUpPlan, CostInputs, SelectionObjective};
use integrated_passives::explore::{
    FlowAxis, FlowExplorer, Levels, Metric, Objective, ParetoFrontier, RefineOptions, Refined,
    SamplerSpec,
};
use integrated_passives::gps::{bom::gps_bom, table2::cost_inputs};
use integrated_passives::moe::{Executor, Flow, FlowError, SimOptions};
use integrated_passives::units::{Area, Probability};
use std::process::ExitCode;
use std::time::Instant;

/// First argument that makes this binary an exploring child process.
pub const CHILD_FLAG: &str = "--explore-child";
/// Grid points per axis: an exploration of about 65 ms, so a host time
/// slice lost by one of the executor's threads stretches it by a share
/// rather than doubling it.
const SIDE: usize = 96;
/// Monte Carlo units per promoted point.
const MC_UNITS: u64 = 1_000;
/// Promotion margin of the refinement.
const MARGIN: f64 = 0.05;
/// Timed explorations per fresh process, after one untimed warm-up.
const PER_PROCESS: usize = 12;
/// Timed explorations a run needs at least: a p90 in each of
/// `stats::BLOCKS` blocks wants 100.
const MIN_SAMPLES: usize = 100 * stats::BLOCKS;
/// Repetitions of each traced measurement.
const TRACE_REPS: u64 = 9;
/// The functional test whose coverage is the second axis.
const TEST: &str = "functional test";

/// The seeded design space: axis ranges and the confirmation seed. The
/// ranges move only slightly with the seed, so every seed screens and
/// confirms a similar amount of work.
#[derive(Debug, Clone, Copy)]
struct Space {
    scale: (f64, f64),
    coverage: (f64, f64),
    mc_seed: u64,
}

impl Space {
    fn from_seed(seed: u64) -> Space {
        let mut rng = Rng::new(seed, 3);
        Space {
            scale: (rng.range(0.45, 0.55), rng.range(1.45, 1.55)),
            coverage: (rng.range(0.895, 0.905), rng.range(0.998, 0.9995)),
            mc_seed: rng.next_u64(),
        }
    }
}

/// Solution 2 planned and compiled into an explorer, plus what the
/// refine build closure rebuilds a promoted point's flow from.
struct Setup {
    explorer: FlowExplorer,
    plan: BuildUpPlan,
    area: Area,
    card: CostInputs,
    carrier: String,
    options: RefineOptions,
}

impl Setup {
    fn new(space: &Space) -> Result<Setup, String> {
        let buildup = BuildUp::paper_solutions()[1];
        let plan = buildup
            .plan(&gps_bom(&buildup), SelectionObjective::MinArea)
            .map_err(|e| e.to_string())?;
        let area = plan.area().substrate_area;
        let card = cost_inputs(&buildup);
        let flow = plan
            .production_flow(area, &card)
            .map_err(|e| e.to_string())?;
        let carrier = flow.line().carrier().name().to_owned();
        let explorer = FlowExplorer::new(flow.compiled().map_err(|e| e.to_string())?)
            .axis(FlowAxis::cost_scale(
                &carrier,
                Levels::linspace(space.scale.0, space.scale.1, SIDE),
            ))
            .axis(FlowAxis::coverage(
                TEST,
                Levels::linspace(space.coverage.0, space.coverage.1, SIDE),
            ))
            .objective(Objective::minimize(Metric::FinalCostPerShipped))
            .objective(Objective::minimize(Metric::EscapeRate));
        let options = RefineOptions {
            margin: MARGIN,
            mc_units: MC_UNITS,
            seed: space.mc_seed,
            stop: None,
            ..RefineOptions::default()
        };
        Ok(Setup {
            explorer,
            plan,
            area,
            card,
            carrier,
            options,
        })
    }

    /// The refine build closure: rebuild solution 2's flow at a point.
    fn build(&self, coords: &[f64]) -> Result<Flow, FlowError> {
        let mut card = self.card.clone();
        card.substrate_cost_per_cm2 = card.substrate_cost_per_cm2 * coords[0];
        card.fault_coverage = Probability::clamped(coords[1]);
        self.plan.production_flow(self.area, &card)
    }

    fn refine(&self, explorer: &FlowExplorer) -> Result<Refined, String> {
        explorer
            .refine(&SamplerSpec::Grid, &self.options, |c| self.build(c))
            .map_err(|e| e.to_string())
    }
}

/// FNV-1a over everything an exploration decides: the frontier
/// (indices and objective bits), the promoted set, and each
/// confirmation's objectives, units and early stop.
fn digest(r: &Refined) -> u64 {
    let mut h = stats::FNV_OFFSET;
    let mut eat = |v: u64| h = stats::fnv1a(h, &v.to_le_bytes());
    for m in r.frontier().members() {
        eat(m.index as u64);
        m.objectives.iter().for_each(|o| eat(o.to_bits()));
    }
    r.promoted.iter().for_each(|&i| eat(i as u64));
    for c in &r.confirmations {
        eat(c.index as u64);
        c.objectives.iter().for_each(|o| eat(o.to_bits()));
        eat(c.units_run.to_bits());
        eat(u64::from(c.stopped_early));
    }
    h
}

/// The child process: build the explorer, print `ready`, run one
/// untimed warm-up and `PER_PROCESS` timed explorations (a `warmup` or
/// `sample` line each), then `rss <MB>`.
pub fn child_main(args: &[String]) -> ExitCode {
    let Some(seed) = args.first().and_then(|s| s.parse().ok()) else {
        eprintln!("perfbench: {CHILD_FLAG} needs a seed");
        return ExitCode::FAILURE;
    };
    let setup = match Setup::new(&Space::from_seed(seed)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: exploring child set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("ready");
    for n in 0..=PER_PROCESS {
        let began = Instant::now();
        let refined = setup.refine(&setup.explorer);
        let ns = began.elapsed().as_nanos();
        match refined {
            Ok(r) if n == 0 => println!("warmup {:016x}", digest(&r)),
            Ok(r) => println!("sample {ns} {} {:016x}", r.screen.points.len(), digest(&r)),
            Err(e) => println!("error {e}"),
        }
    }
    let rss = sys::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    println!("rss {rss}");
    ExitCode::SUCCESS
}

/// The serial reference digest of this seed's exploration.
fn reference(space: &Space) -> Result<u64, String> {
    let setup = Setup::new(space)?;
    let serial = setup.explorer.clone().with_executor(Executor::serial());
    Ok(digest(&setup.refine(&serial)?))
}

/// The untraced run: fresh exploring children until the budget is
/// spent and there are enough samples for the set-up median and the
/// blocked percentiles. Explorations are counted against the serial
/// reference.
pub fn run(paths: &Paths, run: Run, outcome: &mut Outcome) -> Result<(), String> {
    let expected = reference(&Space::from_seed(run.seed))?;
    let matches = |d: &str| u64::from_str_radix(d, 16) == Ok(expected);
    let seed = run.seed.to_string();
    let child = (
        paths.me.as_path(),
        &[CHILD_FLAG, seed.as_str()][..],
        PER_PROCESS + 1,
    );
    run_children(
        child,
        run.budget,
        outcome,
        (MIN_SAMPLES, 0.9),
        |fields, report, tally| {
            report.ops += 1;
            match fields {
                ["warmup", d] => {
                    tally.record(matches(d));
                }
                ["sample", ns, points, d] => {
                    let ms = ns.parse::<f64>().ok().map(|ns| ns / 1e6);
                    let ok = tally.record(matches(d) && ms.is_some());
                    match ms.filter(|_| ok) {
                        Some(ms) => {
                            report.latencies_ms.push(ms);
                            report.work += points.parse().unwrap_or(0.0);
                            report.busy_s += ms / 1e3;
                        }
                        None => report.latencies_ms.push(f64::INFINITY),
                    }
                }
                other => {
                    tally.record(false);
                    report.latencies_ms.push(f64::INFINITY);
                    eprintln!("perfbench: exploring child said {other:?}");
                }
            }
        },
    )
}

fn median_of(tracer: &Tracer, name: &str) -> f64 {
    stats::median(&tracer.durations(name))
}

/// The traced exploration layers. Returns the tracing overhead on the
/// refine p50, in percent of the untraced p50.
pub fn trace(
    _paths: &Paths,
    run: Run,
    tracer: &Tracer,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    let space = Space::from_seed(run.seed);
    let expected = reference(&space)?;
    let setup = Setup::new(&space)?;
    let explorer = &setup.explorer;
    let warm = setup.refine(explorer)?;
    outcome.tally.record(digest(&warm) == expected);

    // Untraced and traced refinement, alternated.
    let mut untraced = Vec::new();
    let mut promoted_ratio = 0.0;
    for rep in 0..TRACE_REPS {
        let began = Instant::now();
        let plain = setup.refine(explorer)?;
        untraced.push(began.elapsed().as_nanos() as f64);
        outcome.tally.record(digest(&plain) == expected);
        let traced = tracer.time("explore.refine", rep, None, |root| {
            explorer
                .refine(&SamplerSpec::Grid, &setup.options, |c| {
                    tracer.time("explore.build", rep, Some(root), |_| setup.build(c))
                })
                .map_err(|e| e.to_string())
        })?;
        outcome.tally.record(digest(&traced) == expected);
        promoted_ratio = traced.promoted_fraction();
    }
    let overhead = (median_of(tracer, "explore.refine") / stats::median(&untraced) - 1.0) * 100.0;

    // The screen alone, Pareto extraction, and the per-point patch and
    // walk that the screen fans out.
    let mut frontier_size = 0;
    let mut points = 0;
    for rep in 0..TRACE_REPS {
        let screen = tracer
            .time("explore.screen", rep, None, |_| {
                explorer.explore(&SamplerSpec::Grid)
            })
            .map_err(|e| e.to_string())?;
        points = screen.points.len();
        frontier_size = screen.frontier.members().len();
        let frontier = tracer.time("explore.pareto", rep, None, |_| {
            ParetoFrontier::extract(screen.senses.clone(), screen.points.iter().cloned())
        });
        outcome.tally.record(frontier == screen.frontier);
        let compiled = explorer.compiled();
        let patches = tracer
            .time("moe.patch", rep, None, |_| {
                screen
                    .points
                    .iter()
                    .map(|p| {
                        let mut patch = compiled.patch();
                        patch.scale_cost(&setup.carrier, p.coords[0])?;
                        patch.set_coverage(TEST, Probability::clamped(p.coords[1]))?;
                        Ok(patch)
                    })
                    .collect::<Result<Vec<_>, FlowError>>()
            })
            .map_err(|e| e.to_string())?;
        let reports = tracer
            .time("moe.walk", rep, None, |_| {
                patches
                    .iter()
                    .map(|p| p.analyze())
                    .collect::<Result<Vec<_>, FlowError>>()
            })
            .map_err(|e| e.to_string())?;
        let same = reports.iter().zip(&screen.points).all(|(r, p)| {
            p.objectives == [Metric::FinalCostPerShipped.of(r), Metric::EscapeRate.of(r)]
        });
        outcome.tally.record(same);
    }

    // Monte Carlo at the confirmation's unit count, on one promoted
    // point's rebuilt flow.
    let promoted = warm.promoted.first().ok_or("nothing was promoted")?;
    let flow = setup
        .build(&warm.screen.points[*promoted].coords)
        .map_err(|e| e.to_string())?;
    for rep in 0..TRACE_REPS {
        let options = SimOptions::new(MC_UNITS).with_seed(space.mc_seed ^ rep);
        let summary = tracer.time("moe.simulate_summary", rep, None, |_| {
            flow.simulate_summary(&options)
        });
        outcome.tally.record(summary.is_ok());
    }

    // Screening scaling: serial against the default executor.
    let serial = explorer.clone().with_executor(Executor::serial());
    for rep in 0..TRACE_REPS {
        for (name, e) in [
            ("sim.screen_serial", &serial),
            ("sim.screen_default", explorer),
        ] {
            let frontier = tracer.time(name, rep, None, |_| e.screen_frontier(&SamplerSpec::Grid));
            outcome
                .tally
                .record(matches!(&frontier, Ok(f) if f.indices() == warm.frontier().indices()));
        }
    }

    let n = points as f64;
    let refine_ms = median_of(tracer, "explore.refine") / 1e6;
    let screen_ms = median_of(tracer, "explore.screen") / 1e6;
    outcome.metric("explore.refine_ms", refine_ms, "ms");
    outcome.metric("explore.screen_ms", screen_ms, "ms");
    outcome.metric("explore.screen_ns_per_point", screen_ms * 1e6 / n, "ns");
    outcome.metric("explore.confirm_ms", refine_ms - screen_ms, "ms");
    outcome.metric("moe.patch_ns", median_of(tracer, "moe.patch") / n, "ns");
    outcome.metric("moe.walk_ns", median_of(tracer, "moe.walk") / n, "ns");
    outcome.metric(
        "explore.pareto_ms",
        median_of(tracer, "explore.pareto") / 1e6,
        "ms",
    );
    outcome.metric("explore.promoted_ratio", promoted_ratio, "ratio");
    outcome.metric("explore.frontier_size", frontier_size as f64, "count");
    outcome.metric(
        "explore.build_us",
        median_of(tracer, "explore.build") / 1e3,
        "us",
    );
    outcome.metric(
        "moe.mc_ns_per_unit",
        median_of(tracer, "moe.simulate_summary") / MC_UNITS as f64,
        "ns",
    );
    outcome.metric(
        "sim.screen_speedup",
        median_of(tracer, "sim.screen_serial") / median_of(tracer, "sim.screen_default"),
        "ratio",
    );
    Ok(overhead)
}
