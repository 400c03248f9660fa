//! Cost reports: the paper's Eq. 1 accounting plus breakdowns.

use crate::cost::{CostCategory, CostVector};
use crate::error::FlowError;
use ipass_units::Money;
use std::fmt;
use std::ops::Deref;

/// One row of a rendered cost breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdownRow {
    /// Row label.
    pub label: String,
    /// Amount per shipped unit.
    pub per_shipped: Money,
    /// Share of the final cost (0–1).
    pub share: f64,
}

/// The numbers of a [`CostReport`], without its labels: the run's
/// totals and every quantity the paper's Eq. 1 derives from them.
///
/// All absolute figures refer to `started` carrier units (the analytic
/// engine normalizes `started = 1`); the `*_per_shipped` accessors
/// implement Eq. 1:
///
/// ```text
/// final cost = (Σ direct cost + Σ scrap cost + Σ NRE) / #shipped
/// ```
///
/// A `CostReport` derefs to its figures, so every accessor here reads
/// the same off either. [`FlowPatch::figures`] returns them straight
/// from the analytic walk, without naming the flow or its defect
/// sources.
///
/// [`FlowPatch::figures`]: crate::FlowPatch::figures
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostFigures {
    started: f64,
    shipped: f64,
    good_shipped: f64,
    total_spend: Money,
    shipped_embodied: Money,
    by_category: CostVector,
    nre: Money,
    volume: u64,
}

impl CostFigures {
    /// Assemble a run's figures from its sums, booking `by_category[k]`
    /// under the category of index `k`. Both engines build their figures
    /// here, each after its own [`FlowError::NothingShipped`] check.
    ///
    /// Costs that are each finite can still overflow when summed. A
    /// total spend or category spend that is not finite is refused with
    /// [`FlowError::NonFiniteCost`] before it reaches [`Money::new`],
    /// which panics on NaN; so is a final cost per shipped unit that is
    /// not finite. `flow` is read only to name the flow in the error.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_from_parts(
        flow: &str,
        started: f64,
        shipped: f64,
        good_shipped: f64,
        total_spend: f64,
        shipped_embodied: f64,
        by_category: [f64; CostCategory::COUNT],
        nre: Money,
        volume: u64,
    ) -> Result<CostFigures, FlowError> {
        debug_assert!(shipped <= started + 1e-9);
        debug_assert!(good_shipped <= shipped + 1e-9);
        let overflow = || FlowError::NonFiniteCost {
            flow: flow.to_owned(),
        };
        if !total_spend.is_finite() || !by_category.iter().all(|s| s.is_finite()) {
            return Err(overflow());
        }
        let mut booked = CostVector::new();
        for cat in CostCategory::ALL {
            booked.book(cat, Money::new(by_category[cat.index()]));
        }
        let figures = CostFigures {
            started,
            shipped,
            good_shipped,
            total_spend: Money::new(total_spend),
            shipped_embodied: Money::new(shipped_embodied),
            by_category: booked,
            nre,
            volume,
        };
        if !figures.final_cost_per_shipped().units().is_finite() {
            return Err(overflow());
        }
        Ok(figures)
    }

    /// Units started (1.0 for the analytic engine).
    pub fn started(&self) -> f64 {
        self.started
    }

    /// Units shipped (includes escapes).
    pub fn shipped(&self) -> f64 {
        self.shipped
    }

    /// Fraction of started units that ship.
    pub fn shipped_fraction(&self) -> f64 {
        if self.started == 0.0 {
            0.0
        } else {
            self.shipped / self.started
        }
    }

    /// Shipped units that are actually good.
    pub fn good_shipped(&self) -> f64 {
        self.good_shipped
    }

    /// Shipped-but-defective units ("test escapes").
    pub fn escapes(&self) -> f64 {
        (self.shipped - self.good_shipped).max(0.0)
    }

    /// Fraction of shipped units that are defective.
    pub fn escape_rate(&self) -> f64 {
        if self.shipped == 0.0 {
            0.0
        } else {
            self.escapes() / self.shipped
        }
    }

    /// Total production spend for the started units, excluding NRE.
    pub fn total_spend(&self) -> Money {
        self.total_spend
    }

    /// Money embodied in the shipped units themselves.
    pub fn shipped_embodied(&self) -> Money {
        self.shipped_embodied
    }

    /// Money sunk into scrapped units (yield loss).
    pub fn scrap_spend(&self) -> Money {
        self.total_spend - self.shipped_embodied
    }

    /// Total spend by accounting category (shipped + scrapped).
    pub fn by_category(&self) -> &CostVector {
        &self.by_category
    }

    /// Average cost accumulated by one *shipped* unit (the "direct cost"
    /// bar of Fig. 5).
    pub fn direct_cost_per_shipped(&self) -> Money {
        if self.shipped == 0.0 {
            Money::ZERO
        } else {
            self.shipped_embodied / self.shipped
        }
    }

    /// Scrap cost allocated to each shipped unit (the "yield loss" bar of
    /// Fig. 5).
    pub fn yield_loss_per_shipped(&self) -> Money {
        if self.shipped == 0.0 {
            Money::ZERO
        } else {
            self.scrap_spend() / self.shipped
        }
    }

    /// NRE allocated to each shipped unit of the production volume.
    pub fn nre_per_shipped(&self) -> Money {
        let shipped_of_volume = self.volume as f64 * self.shipped_fraction();
        if shipped_of_volume == 0.0 {
            Money::ZERO
        } else {
            self.nre / shipped_of_volume
        }
    }

    /// Eq. 1: final cost per shipped unit.
    pub fn final_cost_per_shipped(&self) -> Money {
        self.direct_cost_per_shipped() + self.yield_loss_per_shipped() + self.nre_per_shipped()
    }

    /// Per-shipped cost booked under `category` (includes the category's
    /// share of scrapped units).
    pub fn category_cost_per_shipped(&self, category: CostCategory) -> Money {
        if self.shipped == 0.0 {
            Money::ZERO
        } else {
            self.by_category[category] / self.shipped
        }
    }

    /// Rows for a stacked Fig. 5-style breakdown: direct cost (with the
    /// chip share called out), yield loss and NRE.
    pub fn breakdown(&self) -> Vec<CostBreakdownRow> {
        let final_cost = self.final_cost_per_shipped().units();
        let share = |m: Money| {
            if final_cost == 0.0 {
                0.0
            } else {
                m.units() / final_cost
            }
        };
        let mut rows = vec![
            CostBreakdownRow {
                label: "direct cost".into(),
                per_shipped: self.direct_cost_per_shipped(),
                share: share(self.direct_cost_per_shipped()),
            },
            CostBreakdownRow {
                label: "thereof: chip cost".into(),
                per_shipped: self.category_cost_per_shipped(CostCategory::Chip),
                share: share(self.category_cost_per_shipped(CostCategory::Chip)),
            },
            CostBreakdownRow {
                label: "yield loss".into(),
                per_shipped: self.yield_loss_per_shipped(),
                share: share(self.yield_loss_per_shipped()),
            },
        ];
        if self.nre.units() > 0.0 {
            rows.push(CostBreakdownRow {
                label: "NRE".into(),
                per_shipped: self.nre_per_shipped(),
                share: share(self.nre_per_shipped()),
            });
        }
        rows
    }
}

/// The result of evaluating a [`Flow`](crate::Flow), from either engine:
/// the flow's name, its [`CostFigures`] (which the report derefs to)
/// and the defect pareto.
#[derive(Debug, Clone, PartialEq)]
pub struct CostReport {
    name: String,
    figures: CostFigures,
    defect_pareto: Vec<(String, f64)>,
}

impl CostReport {
    pub(crate) fn from_parts(
        name: String,
        figures: CostFigures,
        defect_pareto: Vec<(String, f64)>,
    ) -> CostReport {
        CostReport {
            name,
            figures,
            defect_pareto,
        }
    }

    /// Fraction of started units that received their first defect at each
    /// stage/part, sorted descending ("yield pareto").
    pub fn defect_pareto(&self) -> &[(String, f64)] {
        &self.defect_pareto
    }

    /// The report as a typed artifact table (summary quantities, spend
    /// by category, the defect pareto) — the canonical machine-facing
    /// form; [`CostReport::render`] stays as the compact human layout.
    pub fn artifact_table(&self) -> ipass_report::Table {
        use ipass_report::Cell;
        let mut rows: Vec<(String, f64)> = vec![
            ("units started".into(), self.started()),
            ("units shipped".into(), self.shipped()),
            ("shipped fraction".into(), self.shipped_fraction()),
            ("escape rate".into(), self.escape_rate()),
            (
                "final cost per shipped".into(),
                self.final_cost_per_shipped().units(),
            ),
            (
                "direct cost per shipped".into(),
                self.direct_cost_per_shipped().units(),
            ),
            (
                "yield loss per shipped".into(),
                self.yield_loss_per_shipped().units(),
            ),
            ("NRE per shipped".into(), self.nre_per_shipped().units()),
        ];
        for (cat, amount) in self.by_category().iter() {
            if amount.units() != 0.0 {
                rows.push((format!("spend: {}", cat.label()), amount.units()));
            }
        }
        for (label, frac) in &self.defect_pareto {
            rows.push((format!("first defect at {label}"), *frac));
        }
        rows.into_iter().fold(
            ipass_report::Table::new(format!("cost report — {}", self.name))
                .text_column("quantity")
                .numeric_column("value", 4),
            |t, (label, v)| t.row(vec![Cell::text(label), Cell::num(v)]),
        )
    }

    /// Render a human-readable report table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("flow: {}\n", self.name));
        out.push_str(&format!(
            "  started {:>12.1}   shipped {:>12.1} ({:.2}%)   escapes {:.4}%\n",
            self.started(),
            self.shipped(),
            self.shipped_fraction() * 100.0,
            self.escape_rate() * 100.0
        ));
        out.push_str(&format!(
            "  final cost/shipped: {}\n",
            self.final_cost_per_shipped()
        ));
        for row in self.breakdown() {
            out.push_str(&format!(
                "    {:<22} {:>10}  ({:>5.1}%)\n",
                row.label,
                row.per_shipped.to_string(),
                row.share * 100.0
            ));
        }
        out.push_str("  spend by category (incl. scrap):\n");
        for (cat, amount) in self.by_category().iter() {
            if amount.units() != 0.0 {
                out.push_str(&format!(
                    "    {:<22} {:>10}\n",
                    cat.label(),
                    amount.to_string()
                ));
            }
        }
        if !self.defect_pareto.is_empty() {
            out.push_str("  defect pareto (fraction of started units):\n");
            for (label, frac) in &self.defect_pareto {
                out.push_str(&format!("    {:<34} {:>7.3}%\n", label, frac * 100.0));
            }
        }
        out
    }
}

impl Deref for CostReport {
    type Target = CostFigures;

    fn deref(&self) -> &CostFigures {
        &self.figures
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CostReport {
        let mut cats = [0.0; CostCategory::COUNT];
        cats[CostCategory::Chip.index()] = 70.0;
        cats[CostCategory::Test.index()] = 30.0;
        CostReport::from_parts(
            "t".into(),
            CostFigures::try_from_parts(
                "t",
                1.0,
                0.8,
                0.79,
                100.0,
                84.0,
                cats,
                Money::new(1000.0),
                10_000,
            )
            .unwrap(),
            vec![("solder".into(), 0.15)],
        )
    }

    #[test]
    fn eq1_accounting() {
        let r = report();
        assert!((r.shipped_fraction() - 0.8).abs() < 1e-12);
        assert!((r.direct_cost_per_shipped().units() - 105.0).abs() < 1e-9);
        assert!((r.scrap_spend().units() - 16.0).abs() < 1e-9);
        assert!((r.yield_loss_per_shipped().units() - 20.0).abs() < 1e-9);
        // NRE: 1000 over 10000×0.8 shipped units = 0.125.
        assert!((r.nre_per_shipped().units() - 0.125).abs() < 1e-12);
        assert!((r.final_cost_per_shipped().units() - 125.125).abs() < 1e-9);
    }

    #[test]
    fn escapes_and_rates() {
        let r = report();
        assert!((r.escapes() - 0.01).abs() < 1e-12);
        assert!((r.escape_rate() - 0.0125).abs() < 1e-12);
    }

    #[test]
    fn breakdown_contains_chip_callout() {
        let r = report();
        let rows = r.breakdown();
        assert!(rows.iter().any(|row| row.label.contains("chip")));
        assert!(rows.iter().any(|row| row.label == "NRE"));
        // Direct + yield loss + NRE shares sum to 1 (chip row is a callout
        // inside direct, not additive).
        let sum: f64 = rows
            .iter()
            .filter(|row| !row.label.contains("chip"))
            .map(|row| row.share)
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_shipped_is_safe() {
        let r = CostFigures::try_from_parts(
            "t",
            1.0,
            0.0,
            0.0,
            10.0,
            0.0,
            [0.0; CostCategory::COUNT],
            Money::ZERO,
            1,
        )
        .unwrap();
        assert_eq!(r.direct_cost_per_shipped(), Money::ZERO);
        assert_eq!(r.final_cost_per_shipped(), Money::ZERO);
        assert_eq!(r.escape_rate(), 0.0);
        assert_eq!(r.shipped_fraction(), 0.0);
    }

    #[test]
    fn render_mentions_everything() {
        let text = report().render();
        assert!(text.contains("final cost/shipped"));
        assert!(text.contains("chips"));
        assert!(text.contains("solder"));
        assert!(text.contains("yield loss"));
    }
}
