//! Tornado-style sensitivity analysis: which inputs move the final cost?
//!
//! The paper compares "the results for different cost and yield
//! implications"; this module systematizes that: perturb each input to
//! its low/high variant on the flow's compiled program and rank the
//! inputs by their cost swing. A row is either a derivative direction
//! that one dual pass extrapolates ([`Tornado::evaluate_gradients`]) or
//! a low/high [`FlowPatch`](crate::FlowPatch) pair the caller analyzes
//! itself; [`Tornado::from_rows`] assembles the chart from either kind.

use crate::dual::DualDirection;
use crate::error::FlowError;
use crate::patch::CompiledFlow;
use std::fmt;

/// One input parameter as a derivative direction plus its low/high
/// deltas: the whole chart is one dual pass
/// ([`CompiledFlow::analyze_duals`]) instead of `1 + 2·n` patched
/// walks. Rows extrapolate `baseline + ∂cost/∂direction · Δ`;
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
    /// Evaluate a tornado in **one analytic pass**: the baseline walk
    /// carries one tangent lane per input, and each row is the
    /// gradient extrapolation `baseline + ∂cost/∂direction · Δ`.
    ///
    /// For rows whose direction touches only [`SlotKind::Cost`] slots
    /// the extrapolated costs equal the costs of the re-evaluated
    /// patches exactly (cohort masses are cost-independent, so final
    /// cost is affine in every cost slot); yield and coverage rows are
    /// first-order around the baseline.
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

    /// Assemble a chart from rows the caller computed: re-evaluated
    /// low/high patch pairs, gradient extrapolations, or a mix of both
    /// (exact gradients for cost rows, patches for large nonlinear
    /// steps), like the GPS case study's sensitivity experiment. Rows
    /// are sorted by decreasing swing, as in
    /// [`Tornado::evaluate_gradients`].
    pub fn from_rows(baseline_cost: f64, rows: Vec<TornadoRow>) -> Tornado {
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
    use crate::compile::SlotKind;
    use crate::cost::{CostCategory, StepCost};
    use crate::flow::Flow;
    use crate::line::Line;
    use crate::part::Part;
    use crate::patch::FlowPatch;
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

    /// Part cost ±10 % and process yield ±5 pts around `flow(10.0, 0.9)`,
    /// as `(name, low, high)` patch pairs.
    fn two_inputs(base: &CompiledFlow) -> Vec<(&'static str, FlowPatch, FlowPatch)> {
        vec![
            (
                "part cost ±10%",
                variant(base, Some(9.0), None),
                variant(base, Some(11.0), None),
            ),
            (
                "process yield ±5pts",
                variant(base, None, Some(0.85)),
                variant(base, None, Some(0.95)),
            ),
        ]
    }

    /// The caller-side patched tornado: analyze the baseline and every
    /// low/high pair, then assemble the chart with `from_rows`.
    fn patched(base: &CompiledFlow, pairs: &[(&str, FlowPatch, FlowPatch)]) -> Tornado {
        let cost = |patch: &FlowPatch| patch.analyze().unwrap().final_cost_per_shipped().units();
        let rows = pairs
            .iter()
            .map(|(name, low, high)| TornadoRow {
                name: (*name).to_owned(),
                low_cost: cost(low),
                high_cost: cost(high),
            })
            .collect();
        Tornado::from_rows(
            base.analyze().unwrap().final_cost_per_shipped().units(),
            rows,
        )
    }

    fn row(name: &str, low_cost: f64, high_cost: f64) -> TornadoRow {
        TornadoRow {
            name: name.to_owned(),
            low_cost,
            high_cost,
        }
    }

    #[test]
    fn ranks_by_swing() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let tornado = patched(&base, &two_inputs(&base));
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
                row(
                    "part cost ±10%",
                    cost(flow(9.0, 0.9)),
                    cost(flow(11.0, 0.9)),
                ),
                row(
                    "process yield ±5pts",
                    cost(flow(10.0, 0.85)),
                    cost(flow(10.0, 0.95)),
                ),
            ],
        );
        let base = flow(10.0, 0.9).compiled().unwrap();
        let patched = patched(&base, &two_inputs(&base));
        assert_eq!(rebuilt.baseline_cost(), patched.baseline_cost());
        assert_eq!(rebuilt.rows(), patched.rows());
    }

    #[test]
    fn nan_swing_sorts_first_not_arbitrarily() {
        // `partial_cmp(..).unwrap_or(Equal)` used to make NaN swings
        // compare Equal to everything, so sort order depended on where
        // the NaN row sat in the input. `total_cmp` ranks NaN above all
        // finite swings, deterministically.
        let small = row("small", 9.0, 11.0); // swing 2
        let poisoned = row("poisoned", f64::NAN, 11.0); // swing NaN
        let big = row("big", 5.0, 15.0); // swing 10
        for rows in [
            vec![small.clone(), poisoned.clone(), big.clone()],
            // Same rows, NaN listed last on input: same output order.
            vec![big, small, poisoned],
        ] {
            let tornado = Tornado::from_rows(10.0, rows);
            let order: Vec<&str> = tornado.rows().iter().map(|r| r.name.as_str()).collect();
            assert_eq!(order, ["poisoned", "big", "small"]);
        }
    }

    #[test]
    fn gradient_tornado_cross_checks_the_patched_path() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let patched = patched(&base, &two_inputs(&base));
        let gradient = Tornado::evaluate_gradients(
            &base,
            &[
                TornadoDirection {
                    name: "part cost ±10%",
                    direction: DualDirection::new().with("c", SlotKind::Cost, 1.0),
                    low: -1.0,
                    high: 1.0,
                },
                TornadoDirection {
                    name: "process yield ±5pts",
                    direction: DualDirection::new().with("p", SlotKind::Yield, 1.0),
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
        let tornado = patched(
            &base,
            &[(
                "x",
                variant(&base, Some(8.0), None),
                variant(&base, Some(12.0), None),
            )],
        );
        let text = tornado.render();
        assert!(text.contains("█") && text.contains("baseline"));
    }

    #[test]
    fn empty_inputs_is_just_the_baseline() {
        let base = flow(10.0, 0.9).compiled().unwrap();
        let tornado = Tornado::evaluate_gradients(&base, &[]).unwrap();
        assert!(tornado.rows().is_empty());
        assert_eq!(
            tornado.baseline_cost(),
            base.analyze().unwrap().final_cost_per_shipped().units()
        );
        assert!(tornado.baseline_cost() > 0.0);
    }
}
