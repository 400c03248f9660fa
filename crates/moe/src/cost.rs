//! Cost terms attached to parts and stages, and cost attribution by
//! category.

use ipass_units::{Area, Money};
use std::fmt;
use std::ops::{Add, AddAssign, Index, Mul};

/// Accounting category a cost contribution is booked under.
///
/// Categories drive the stacked breakdown of the paper's Fig. 5 (direct
/// cost with "thereof: chip cost") and the per-implementation reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostCategory {
    /// Active dies / packaged ICs (Fig. 5 singles this share out).
    Chip,
    /// Carrier: PCB, MCM-D substrate, including per-area substrate cost.
    Substrate,
    /// Purchased passive components (SMDs, filters).
    PassiveParts,
    /// Assembly and interconnect operations (placement, bonding).
    Assembly,
    /// Module packaging (e.g. BGA laminate).
    Packaging,
    /// Test operations.
    Test,
    /// Anything else (rework, logistics…).
    Other,
}

impl CostCategory {
    /// Number of categories (size of a [`CostVector`]).
    pub const COUNT: usize = 7;

    /// All categories in display order.
    pub const ALL: [CostCategory; CostCategory::COUNT] = [
        CostCategory::Chip,
        CostCategory::Substrate,
        CostCategory::PassiveParts,
        CostCategory::Assembly,
        CostCategory::Packaging,
        CostCategory::Test,
        CostCategory::Other,
    ];

    /// Stable index into a [`CostVector`].
    pub fn index(self) -> usize {
        match self {
            CostCategory::Chip => 0,
            CostCategory::Substrate => 1,
            CostCategory::PassiveParts => 2,
            CostCategory::Assembly => 3,
            CostCategory::Packaging => 4,
            CostCategory::Test => 5,
            CostCategory::Other => 6,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            CostCategory::Chip => "chips",
            CostCategory::Substrate => "substrate",
            CostCategory::PassiveParts => "passive parts",
            CostCategory::Assembly => "assembly",
            CostCategory::Packaging => "packaging",
            CostCategory::Test => "test",
            CostCategory::Other => "other",
        }
    }
}

impl fmt::Display for CostCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Money totals broken down by [`CostCategory`].
///
/// # Examples
///
/// ```
/// use ipass_moe::{CostCategory, CostVector};
/// use ipass_units::Money;
///
/// let mut v = CostVector::default();
/// v.book(CostCategory::Chip, Money::new(198.0));
/// v.book(CostCategory::Test, Money::new(10.0));
/// assert_eq!(v[CostCategory::Chip], Money::new(198.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostVector([Money; CostCategory::COUNT]);

impl CostVector {
    /// A zeroed vector.
    pub fn new() -> CostVector {
        CostVector::default()
    }

    /// Book an amount under one category.
    ///
    /// (Named `book` rather than `add` to avoid colliding with
    /// [`std::ops::Add`], which merges two vectors.)
    pub fn book(&mut self, category: CostCategory, amount: Money) {
        self.0[category.index()] += amount;
    }

    /// Iterate `(category, amount)` pairs in display order.
    pub fn iter(&self) -> impl Iterator<Item = (CostCategory, Money)> + '_ {
        CostCategory::ALL
            .iter()
            .map(move |&c| (c, self.0[c.index()]))
    }
}

impl Index<CostCategory> for CostVector {
    type Output = Money;

    fn index(&self, category: CostCategory) -> &Money {
        &self.0[category.index()]
    }
}

impl Add for CostVector {
    type Output = CostVector;

    fn add(mut self, rhs: CostVector) -> CostVector {
        self += rhs;
        self
    }
}

impl AddAssign for CostVector {
    fn add_assign(&mut self, rhs: CostVector) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a += *b;
        }
    }
}

impl Mul<f64> for CostVector {
    type Output = CostVector;

    fn mul(mut self, rhs: f64) -> CostVector {
        for a in self.0.iter_mut() {
            *a = *a * rhs;
        }
        self
    }
}

/// The cost a part or stage contributes, combining a fixed term, a
/// per-item term (bond wires, SMD placements) and a per-area term
/// (substrate cost per cm²).
///
/// # Examples
///
/// ```
/// use ipass_moe::StepCost;
/// use ipass_units::{Area, Money};
///
/// // 212 wire bonds at 0.01 each:
/// let wb = StepCost::per_item(Money::new(0.01), 212);
/// assert_eq!(wb.total(), Money::new(2.12));
///
/// // MCM-D substrate at 1.75 per cm² for an 8.1 cm² substrate:
/// let sub = StepCost::per_area(Money::new(1.75), Area::from_cm2(8.1));
/// assert!((sub.total().units() - 14.175).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepCost {
    fixed: Money,
    per_item: Money,
    items: u32,
    per_cm2: Money,
    area: Area,
}

impl StepCost {
    /// A zero cost.
    pub const ZERO: StepCost = StepCost {
        fixed: Money::ZERO,
        per_item: Money::ZERO,
        items: 0,
        per_cm2: Money::ZERO,
        area: Area::ZERO,
    };

    /// A fixed amount per unit passing the stage.
    pub fn fixed(amount: Money) -> StepCost {
        StepCost {
            fixed: amount,
            ..StepCost::ZERO
        }
    }

    /// `each × items` (e.g. per bond, per placement).
    pub fn per_item(each: Money, items: u32) -> StepCost {
        StepCost {
            per_item: each,
            items,
            ..StepCost::ZERO
        }
    }

    /// `rate × area` (e.g. substrate cost per cm²).
    pub fn per_area(rate_per_cm2: Money, area: Area) -> StepCost {
        StepCost {
            per_cm2: rate_per_cm2,
            area,
            ..StepCost::ZERO
        }
    }

    /// Total monetary amount of this cost.
    pub fn total(&self) -> Money {
        self.fixed + self.per_item * f64::from(self.items) + self.per_cm2 * self.area.cm2()
    }
}

impl fmt::Display for StepCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_indices_are_dense_and_unique() {
        let mut seen = [false; CostCategory::COUNT];
        for c in CostCategory::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn vector_add_and_scale() {
        let mut a = CostVector::new();
        a.book(CostCategory::Chip, Money::new(1.0));
        let mut b = CostVector::new();
        b.book(CostCategory::Chip, Money::new(2.0));
        b.book(CostCategory::Test, Money::new(4.0));
        let sum = a + b;
        assert_eq!(sum[CostCategory::Chip], Money::new(3.0));
        let scaled = sum * 0.5;
        assert_eq!(scaled[CostCategory::Chip], Money::new(1.5));
        assert_eq!(scaled[CostCategory::Test], Money::new(2.0));
    }

    #[test]
    fn vector_iter_in_display_order() {
        let mut v = CostVector::new();
        // Bookings under one category accumulate.
        v.book(CostCategory::Other, Money::new(0.25));
        v.book(CostCategory::Other, Money::new(0.75));
        let items: Vec<_> = v.iter().collect();
        assert_eq!(items.len(), CostCategory::COUNT);
        assert_eq!(items[0].0, CostCategory::Chip);
        assert_eq!(items[6], (CostCategory::Other, Money::new(1.0)));
    }

    #[test]
    fn step_cost_terms() {
        assert_eq!(StepCost::ZERO.total(), Money::ZERO);
        assert_eq!(StepCost::fixed(Money::new(7.3)).total(), Money::new(7.3));
        assert_eq!(
            StepCost::per_item(Money::new(0.01), 112).total(),
            Money::new(1.12)
        );
        let a = StepCost::per_area(Money::new(2.25), Area::from_cm2(2.6));
        assert!((a.total().units() - 5.85).abs() < 1e-12);
    }

    #[test]
    fn display_shows_total() {
        let c = StepCost::fixed(Money::new(2.5));
        assert_eq!(c.to_string(), "2.50");
    }
}
