//! Tornado-style sensitivity analysis: which inputs move the final cost?
//!
//! The paper compares "the results for different cost and yield
//! implications"; this module systematizes that: perturb each input to
//! its low/high variant on the flow's compiled program, evaluate it
//! analytically, and rank the inputs by their cost swing. A variant is
//! either a [`FlowPatch`] that is re-evaluated
//! ([`Tornado::evaluate_patches`]) or a derivative direction that one
//! dual pass extrapolates ([`Tornado::evaluate_gradients`]);
//! [`Tornado::from_rows`] mixes the two.

use crate::dual::DualDirection;
use crate::error::FlowError;
use crate::patch::{CompiledFlow, FlowPatch};
use ipass_sim::Executor;
use std::fmt;

/// One input parameter as a pair of patches on a shared compiled
/// program: the production line is compiled once and each variant
/// overwrites a few parameter slots (see [`FlowPatch`]).
#[derive(Debug)]
pub struct TornadoPatch<'a> {
    /// Parameter label.
    pub name: &'a str,
    /// The patch with the parameter at its low value.
    pub low: FlowPatch,
    /// The patch with the parameter at its high value.
    pub high: FlowPatch,
}

/// One input parameter as a derivative direction plus its low/high
/// deltas — the gradient form of [`TornadoPatch`]: the whole chart is
/// one dual pass ([`CompiledFlow::analyze_duals`]) instead of `1 + 2·n`
/// patched walks. Rows extrapolate `baseline + ∂cost/∂direction · Δ`;
/// for pure cost directions that extrapolation is *exact* (final cost
/// is affine in every cost slot), elsewhere it is first-order.
#[derive(Debug)]
pub struct TornadoDirection<'a> {
    /// Parameter label.
    pub name: &'a str,
    /// The derivative direction (per-input-unit slot weights).
    pub direction: DualDirection,
    /// Signed delta along `direction` for the low variant.
    pub low: f64,
    /// Signed delta along `direction` for the high variant.
    pub high: f64,
}

/// One bar of the tornado chart.
#[derive(Debug, Clone, PartialEq)]
pub struct TornadoRow {
    /// Parameter label.
    pub name: String,
    /// Final cost per shipped unit with the low variant.
    pub low_cost: f64,
    /// Final cost per shipped unit with the high variant.
    pub high_cost: f64,
}

impl TornadoRow {
    /// The swing (absolute difference) this parameter produces.
    pub fn swing(&self) -> f64 {
        (self.high_cost - self.low_cost).abs()
    }
}

/// The tornado chart: rows sorted by decreasing swing around the
/// baseline cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Tornado {
    baseline_cost: f64,
    rows: Vec<TornadoRow>,
}

impl Tornado {
    /// Evaluate a tornado over patches of one shared compiled program:
    /// the baseline is the unpatched program, each row a low/high
    /// [`FlowPatch`] pair. Nothing is compiled — each variant is a
    /// patched copy of the base op vector.
    ///
    /// # Errors
    ///
    /// Fails if the baseline or any patched variant ships nothing.
    pub fn evaluate_patches(
        baseline: &CompiledFlow,
        inputs: &[TornadoPatch<'_>],
    ) -> Result<Tornado, FlowError> {
        Tornado::evaluate_patches_with(&Executor::available(), baseline, inputs)
    }

    /// [`Tornado::evaluate_patches`] on an explicit executor; the
    /// low/high variants are analyzed in parallel.
    ///
    /// # Errors
    ///
    /// Fails if the baseline or any patched variant ships nothing.
    pub fn evaluate_patches_with(
        executor: &Executor,
        baseline: &CompiledFlow,
        inputs: &[TornadoPatch<'_>],
    ) -> Result<Tornado, FlowError> {
        let mut costs = vec![baseline.analyze()?.final_cost_per_shipped().units()];
        let variants: Vec<&FlowPatch> = inputs.iter().flat_map(|i| [&i.low, &i.high]).collect();
        costs.extend(executor.try_map(&variants, |_, patch| {
            Ok::<f64, FlowError>(patch.analyze()?.final_cost_per_shipped().units())
        })?);
        Ok(Tornado::from_costs(&costs, inputs.iter().map(|i| i.name)))
    }

    /// Evaluate a tornado in **one analytic pass**: the baseline walk
    /// carries one tangent lane per input, and each row is the
    /// gradient extrapolation `baseline + ∂cost/∂direction · Δ`.
    ///
    /// For rows whose direction touches only [`SlotKind::Cost`] slots
    /// the extrapolated costs equal the re-evaluated
    /// [`Tornado::evaluate_patches`] costs exactly (cohort masses are
    /// cost-independent, so final cost is affine in every cost slot);
    /// yield and coverage rows are first-order around the baseline.
    ///
    /// # Errors
    ///
    /// Fails if a direction names an unknown or ambiguous slot, or if
    /// the baseline ships nothing.
    ///
    /// [`SlotKind::Cost`]: crate::SlotKind::Cost
    pub fn evaluate_gradients(
        baseline: &CompiledFlow,
        inputs: &[TornadoDirection<'_>],
    ) -> Result<Tornado, FlowError> {
        let dual = baseline.analyze_duals(inputs.iter().map(|i| &i.direction))?;
        let baseline_cost = dual.report.final_cost_per_shipped().units();
        let rows = inputs
            .iter()
            .zip(&dual.gradients)
            .map(|(input, g)| TornadoRow {
                name: input.name.to_owned(),
                low_cost: baseline_cost + g.final_cost_per_shipped * input.low,
                high_cost: baseline_cost + g.final_cost_per_shipped * input.high,
            })
            .collect();
        Ok(Tornado::sorted(baseline_cost, rows))
    }

    /// Assemble a chart from externally computed rows — for hybrid
    /// evaluations that mix exact gradient extrapolations (cost rows)
    /// with re-evaluated patches (large nonlinear steps), like
    /// the GPS case study's sensitivity experiment. Rows are sorted by
    /// decreasing swing like every other constructor.
    pub fn from_rows(baseline_cost: f64, rows: Vec<TornadoRow>) -> Tornado {
        Tornado::sorted(baseline_cost, rows)
    }

    /// Assemble the chart from the flat `[baseline, low₀, high₀, …]`
    /// cost batch of [`Tornado::evaluate_patches_with`].
    fn from_costs<'a>(costs: &[f64], names: impl Iterator<Item = &'a str>) -> Tornado {
        let baseline_cost = costs[0];
        let rows: Vec<TornadoRow> = names
            .enumerate()
            .map(|(i, name)| TornadoRow {
                name: name.to_owned(),
                low_cost: costs[1 + 2 * i],
                high_cost: costs[2 + 2 * i],
            })
            .collect();
        Tornado::sorted(baseline_cost, rows)
    }

    /// Sort rows by decreasing swing. `total_cmp`, not `partial_cmp`:
    /// a NaN swing (e.g. a variant whose cost overflowed to NaN) must
    /// sort deterministically — NaN ranks above every finite swing so a
    /// poisoned row is impossible to overlook at the top of the chart —
    /// rather than short-circuiting the comparator to `Equal` and
    /// leaving neighbors in arbitrary relative order.
    fn sorted(baseline_cost: f64, mut rows: Vec<TornadoRow>) -> Tornado {
        rows.sort_by(|a, b| b.swing().total_cmp(&a.swing()));
        Tornado {
            baseline_cost,
            rows,
        }
    }

    /// The baseline final cost per shipped unit.
    pub fn baseline_cost(&self) -> f64 {
        self.baseline_cost
    }

    /// Rows sorted by decreasing swing.
    pub fn rows(&self) -> &[TornadoRow] {
        &self.rows
    }

    /// The chart as a typed range-[`Breakdown`] artifact: one bar per
    /// parameter around the baseline cost, already sorted by swing.
    ///
    /// [`Breakdown`]: ipass_report::Breakdown
    pub fn artifact(&self) -> ipass_report::Breakdown {
        self.artifact_titled("tornado — final cost per shipped unit")
    }

    /// [`Tornado::artifact`] with an explicit title.
    pub fn artifact_titled(&self, title: impl Into<String>) -> ipass_report::Breakdown {
        self.rows.iter().fold(
            ipass_report::Breakdown::new(title, "cost units").with_baseline(self.baseline_cost),
            |b, row| b.range(row.name.clone(), row.low_cost, row.high_cost),
        )
    }

    /// Render the chart as text bars (the artifact pipeline's aligned
    /// txt sink; the old ad-hoc bar formatter is gone).
    pub fn render(&self) -> String {
        self.artifact().to_txt()
    }
}

impl fmt::Display for Tornado {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostCategory, StepCost};
    use crate::flow::Flow;
    use crate::line::Line;
    use crate::part::Part;
    use crate::stage::{Process, Test};
    use crate::yield_model::YieldModel;
    use ipass_units::{Money, Probability};

    fn flow(part_cost: f64, process_yield: f64) -> Flow {
        let line = Line::builder(
            "t",
            Part::new("c", CostCategory::Substrate)
                .with_cost(StepCost::fixed(Money::new(part_cost))),
        )
        .process(
            Process::new("p")
                .with_yield(YieldModel::flat(Probability::new(process_yield).unwrap())),
        )
        .test(Test::new("t").with_coverage(Probability::new(0.99).unwrap()))
        .build()
        .unwrap();
        Flow::new(line)
    }

    /// A patch of `base` with the part cost and/or process yield moved.
    fn variant(base: &CompiledFlow, cost: Option<f64>, y: Option<f64>) -> FlowPatch {
        let mut patch = base.patch();
        if let Some(c) = cost {
            patch.set_cost("c", Money::new(c)).unwrap();
        }
        if let Some(y) = y {
            patch.set_yield("p", Probability::new(y).unwrap()).unwrap();
        }
        patch
    }

    /// Part cost ±10 % and process yield ±5 pts around `flow(10.0, 0.9)`.
    fn two_inputs(base: &CompiledFlow) -> [TornadoPatch<'static>; 2] {
        [
            TornadoPatch {
                name: "part cost ±10%",
                low: variant(base, Some(9.0), None),
                high: variant(base, Some(11.0), None),
            },
            TornadoPatch {
                name: "process yield ±5pts",
                low: variant(base, None, Some(0.85)),
                high: variant(base, None, Some(0.95)),
            },
        ]
    }

    #[test]
    fn ranks_by_swing() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let tornado = Tornado::evaluate_patches(&base, &two_inputs(&base)).unwrap();
        assert_eq!(tornado.rows().len(), 2);
        // Yield ±5 pts swings ~11 % of cost; part cost ±10 % swings ~20 %.
        assert_eq!(tornado.rows()[0].name, "part cost ±10%");
        assert!(tornado.rows()[0].swing() > tornado.rows()[1].swing());
        assert!((tornado.baseline_cost() - 10.0 / 0.9009).abs() < 0.11);
    }

    #[test]
    fn patched_tornado_matches_rebuilt_tornado() {
        // The reference builds and analyzes every variant as a flow of
        // its own.
        let cost = |f: Flow| f.analyze().unwrap().final_cost_per_shipped().units();
        let rebuilt = Tornado::from_rows(
            cost(flow(10.0, 0.9)),
            vec![
                TornadoRow {
                    name: "part cost ±10%".to_owned(),
                    low_cost: cost(flow(9.0, 0.9)),
                    high_cost: cost(flow(11.0, 0.9)),
                },
                TornadoRow {
                    name: "process yield ±5pts".to_owned(),
                    low_cost: cost(flow(10.0, 0.85)),
                    high_cost: cost(flow(10.0, 0.95)),
                },
            ],
        );
        let base = flow(10.0, 0.9).compiled().unwrap();
        let patched = Tornado::evaluate_patches(&base, &two_inputs(&base)).unwrap();
        assert_eq!(rebuilt.baseline_cost(), patched.baseline_cost());
        assert_eq!(rebuilt.rows(), patched.rows());
    }

    #[test]
    fn nan_swing_sorts_first_not_arbitrarily() {
        // `partial_cmp(..).unwrap_or(Equal)` used to make NaN swings
        // compare Equal to everything, so sort order depended on where
        // the NaN row sat in the input. `total_cmp` ranks NaN above all
        // finite swings, deterministically.
        let costs = [
            10.0, // baseline
            9.0,
            11.0, // "small": swing 2
            f64::NAN,
            11.0, // "poisoned": swing NaN
            5.0,
            15.0, // "big": swing 10
        ];
        let tornado = Tornado::from_costs(&costs, ["small", "poisoned", "big"].into_iter());
        let order: Vec<&str> = tornado.rows().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(order, ["poisoned", "big", "small"]);
        // Same rows, NaN listed last on input: same output order.
        let costs = [10.0, 5.0, 15.0, 9.0, 11.0, f64::NAN, 11.0];
        let tornado = Tornado::from_costs(&costs, ["big", "small", "poisoned"].into_iter());
        let order: Vec<&str> = tornado.rows().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(order, ["poisoned", "big", "small"]);
    }

    #[test]
    fn gradient_tornado_cross_checks_the_patched_path() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let patched = Tornado::evaluate_patches(&base, &two_inputs(&base)).unwrap();
        let gradient = Tornado::evaluate_gradients(
            &base,
            &[
                TornadoDirection {
                    name: "part cost ±10%",
                    direction: DualDirection::cost("c"),
                    low: -1.0,
                    high: 1.0,
                },
                TornadoDirection {
                    name: "process yield ±5pts",
                    direction: DualDirection::step_yield("p"),
                    low: -0.05,
                    high: 0.05,
                },
            ],
        )
        .unwrap();
        assert_eq!(gradient.baseline_cost(), patched.baseline_cost());
        assert_eq!(gradient.rows().len(), 2);
        for (g, p_) in gradient.rows().iter().zip(patched.rows()) {
            assert_eq!(g.name, p_.name);
            if g.name.contains("cost") {
                // Cost rows: the gradient extrapolation is exact.
                assert!((g.low_cost - p_.low_cost).abs() <= 1e-12 * p_.low_cost.abs());
                assert!((g.high_cost - p_.high_cost).abs() <= 1e-12 * p_.high_cost.abs());
            } else {
                // Yield rows: first-order around the baseline — within
                // a few percent for a ±5 pt step on this line.
                assert!((g.low_cost - p_.low_cost).abs() / p_.low_cost.abs() < 0.03);
                assert!((g.high_cost - p_.high_cost).abs() / p_.high_cost.abs() < 0.03);
            }
        }
        // Both strategies agree on the ranking.
        assert_eq!(gradient.rows()[0].name, patched.rows()[0].name);
    }

    #[test]
    fn render_draws_bars() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let tornado = Tornado::evaluate_patches(
            &base,
            &[TornadoPatch {
                name: "x",
                low: variant(&base, Some(8.0), None),
                high: variant(&base, Some(12.0), None),
            }],
        )
        .unwrap();
        let text = tornado.render();
        assert!(text.contains("█") && text.contains("baseline"));
    }

    #[test]
    fn empty_inputs_is_just_the_baseline() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let tornado = Tornado::evaluate_patches(&base, &[]).unwrap();
        assert!(tornado.rows().is_empty());
        assert!(tornado.baseline_cost() > 0.0);
    }
}
