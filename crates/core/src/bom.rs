//! Bill-of-materials items with per-technology realizations.

use ipass_units::{Area, Money};
use std::fmt;

/// One way to realize a BOM item: area consumed on the carrier and the
/// purchase cost per piece (integrated realizations are part of the
/// substrate and cost nothing to purchase; their cost appears as
/// substrate area).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Realization {
    area: Area,
    unit_cost: Money,
    bonds: u32,
}

impl Realization {
    /// A realization with the given mounted area and purchase cost.
    pub fn new(area: Area, unit_cost: Money) -> Realization {
        Realization {
            area,
            unit_cost,
            bonds: 0,
        }
    }

    /// Attach a bond-wire count (wire-bonded dies).
    pub fn with_bonds(mut self, bonds: u32) -> Realization {
        self.bonds = bonds;
        self
    }

    /// Area consumed on the carrier (footprint for SMDs, substrate area
    /// for integrated parts, die + pad ring for bare dies).
    pub fn area(&self) -> Area {
        self.area
    }

    /// Purchase cost per piece.
    pub fn unit_cost(&self) -> Money {
        self.unit_cost
    }

    /// Bond wires needed per piece (wire-bonded dies only).
    pub fn bonds(&self) -> u32 {
        self.bonds
    }
}

/// What role an item plays (drives which realization applies under
/// which die-attach/passive choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemRole {
    /// An active die / IC: realizations keyed by die attach.
    Die,
    /// A passive (or passive network): realizations keyed by passive
    /// policy.
    Passive,
}

/// A BOM line: `quantity` pieces of a component, with whichever
/// realizations the technologies offer.
///
/// Missing realizations express infeasibility — e.g. a filter whose
/// integrated version cannot meet spec simply has no integrated
/// realization for build-ups where that matters, or carries one with a
/// performance penalty tracked separately by the RF analysis.
///
/// # Examples
///
/// ```
/// use ipass_core::{BomItem, ItemRole, Realization};
/// use ipass_units::{Area, Money};
///
/// let rf_chip = BomItem::die("RF chip")
///     .with_packaged(Realization::new(Area::from_mm2(225.0), Money::new(90.0)))
///     .with_wire_bond(Realization::new(Area::from_mm2(28.0), Money::new(79.0)).with_bonds(100))
///     .with_flip_chip(Realization::new(Area::from_mm2(13.0), Money::new(79.0)));
/// assert_eq!(rf_chip.role(), ItemRole::Die);
/// assert_eq!(rf_chip.quantity(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BomItem {
    name: String,
    role: ItemRole,
    quantity: u32,
    packaged: Option<Realization>,
    wire_bond: Option<Realization>,
    flip_chip: Option<Realization>,
    smd: Option<Realization>,
    integrated: Option<Realization>,
}

impl BomItem {
    fn new(name: impl Into<String>, role: ItemRole, quantity: u32) -> BomItem {
        assert!(quantity > 0, "BOM quantity must be positive");
        BomItem {
            name: name.into(),
            role,
            quantity,
            packaged: None,
            wire_bond: None,
            flip_chip: None,
            smd: None,
            integrated: None,
        }
    }

    /// A die (quantity 1).
    pub fn die(name: impl Into<String>) -> BomItem {
        BomItem::new(name, ItemRole::Die, 1)
    }

    /// A passive component (or passive network).
    ///
    /// # Panics
    ///
    /// Panics on zero quantity.
    pub fn passive(name: impl Into<String>, quantity: u32) -> BomItem {
        BomItem::new(name, ItemRole::Passive, quantity)
    }

    /// Set the packaged (QFP-on-PCB) realization.
    pub fn with_packaged(mut self, r: Realization) -> BomItem {
        self.packaged = Some(r);
        self
    }

    /// Set the wire-bonded bare-die realization.
    pub fn with_wire_bond(mut self, r: Realization) -> BomItem {
        self.wire_bond = Some(r);
        self
    }

    /// Set the flip-chip bare-die realization.
    pub fn with_flip_chip(mut self, r: Realization) -> BomItem {
        self.flip_chip = Some(r);
        self
    }

    /// Set the SMD realization.
    pub fn with_smd(mut self, r: Realization) -> BomItem {
        self.smd = Some(r);
        self
    }

    /// Set the integrated (in-substrate) realization.
    pub fn with_integrated(mut self, r: Realization) -> BomItem {
        self.integrated = Some(r);
        self
    }

    /// Item name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Item role.
    pub fn role(&self) -> ItemRole {
        self.role
    }

    /// Pieces of this item.
    pub fn quantity(&self) -> u32 {
        self.quantity
    }

    /// The packaged realization, if any.
    pub fn packaged(&self) -> Option<&Realization> {
        self.packaged.as_ref()
    }

    /// The wire-bond realization, if any.
    pub fn wire_bond(&self) -> Option<&Realization> {
        self.wire_bond.as_ref()
    }

    /// The flip-chip realization, if any.
    pub fn flip_chip(&self) -> Option<&Realization> {
        self.flip_chip.as_ref()
    }

    /// The SMD realization, if any.
    pub fn smd(&self) -> Option<&Realization> {
        self.smd.as_ref()
    }

    /// The integrated realization, if any.
    pub fn integrated(&self) -> Option<&Realization> {
        self.integrated.as_ref()
    }
}

impl fmt::Display for BomItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}× {}", self.quantity, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_accessors() {
        let item = BomItem::passive("cap", 45)
            .with_smd(Realization::new(Area::from_mm2(3.75), Money::new(0.03)))
            .with_integrated(Realization::new(Area::from_mm2(0.3), Money::ZERO));
        assert_eq!(item.name(), "cap");
        assert_eq!(item.quantity(), 45);
        assert!(item.smd().is_some());
        assert!(item.integrated().is_some());
        assert!(item.packaged().is_none());
        assert_eq!(item.to_string(), "45× cap");
    }

    #[test]
    fn die_defaults() {
        let die = BomItem::die("DSP");
        assert_eq!(die.role(), ItemRole::Die);
        assert_eq!(die.quantity(), 1);
    }

    #[test]
    fn bonds_ride_on_realizations() {
        let r = Realization::new(Area::from_mm2(28.0), Money::new(10.0)).with_bonds(100);
        assert_eq!(r.bonds(), 100);
        assert_eq!(r.area().mm2(), 28.0);
        assert_eq!(r.unit_cost(), Money::new(10.0));
    }

    #[test]
    #[should_panic(expected = "quantity")]
    fn zero_quantity_rejected() {
        let _ = BomItem::passive("x", 0);
    }
}
