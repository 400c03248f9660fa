//! The GPS front end's bill of materials.
//!
//! §4 of the paper: "the filtering networks including decoupling and
//! pull-up resistors require about 60 passive components"; Table 2 counts
//! 112 SMD placements in solutions 1–2 and 12 in solution 4. This BOM
//! realizes those counts exactly:
//!
//! | group                       | qty | SMD              | integrated            |
//! |-----------------------------|-----|------------------|-----------------------|
//! | decoupling caps 3.3 nF      | 8   | 0805, 4.5 mm²    | 33 mm² (Si₃N₄ MIM)    |
//! | bias / pull-up R ~100 kΩ    | 35  | 0603, 3.75 mm²   | 0.25 mm² (CrSi)       |
//! | RF / coupling C ≤50 pF      | 45  | 0603, 3.75 mm²   | 0.3 mm² (high-κ MIM)  |
//! | matching / choke L ~40 nH   | 20  | 0603, 3.75 mm²   | 1 mm² (spiral)        |
//! | RF band-pass 1.575 GHz      | 1   | module, 27.5 mm² | 12 mm² (3-stage)      |
//! | IF band-pass 175 MHz        | 2   | module, 27.5 mm² | decomposed (below)    |
//! | PLL loop filter             | 1   | module, 27.5 mm² | decomposed (below)    |
//!
//! For build-ups that can integrate passives, the IF and PLL filters are
//! decomposed into elements (per filter: 2 L + 3 C + 1 R for the IF
//! 2-pole Tchebyscheff; 2 R + 2 C for the PLL RC), so the per-component
//! optimizer can make the paper's hybrid choice: SMD inductors (3.75 mm²
//! beats the 5 mm² wide-line IF spiral) with integrated capacitors and
//! resistors. 8 decaps + 4 IF inductors = the 12 SMDs of solution 4.

use crate::chipset::Chip;
use crate::paper::{
    TABLE1_FILTER_IP_MM2, TABLE1_FILTER_SMD_MM2, TABLE1_IP_C_50P_MM2, TABLE1_IP_L_40N_MM2,
    TABLE1_IP_R_100K_MM2,
};
use ipass_core::{BomItem, BuildUp, PassivePolicy, Realization};
use ipass_units::{Area, Money};

/// How the filter networks appear in the BOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterStyle {
    /// Purchased SMD filter modules (solutions 1–2).
    Modules,
    /// Networks decomposed into their R/L/C elements so passives can be
    /// integrated per component (solutions 3–4).
    Elements,
}

impl FilterStyle {
    /// The style a build-up calls for: SMD-only build-ups buy modules;
    /// integrating build-ups decompose.
    pub fn for_buildup(buildup: &BuildUp) -> FilterStyle {
        if buildup.substrate().supports_integrated_passives()
            && buildup.passives() != PassivePolicy::AllSmd
        {
            FilterStyle::Elements
        } else {
            FilterStyle::Modules
        }
    }
}

fn die_item(chip: &Chip) -> BomItem {
    BomItem::die(chip.name())
        .with_packaged(Realization::new(chip.packaged_area(), chip.packaged_cost()))
        .with_wire_bond(
            Realization::new(chip.wire_bond_area(), chip.bare_cost()).with_bonds(chip.bonds()),
        )
        .with_flip_chip(Realization::new(chip.flip_chip_area(), chip.bare_cost()))
}

fn smd(area_mm2: f64, cost: f64) -> Realization {
    Realization::new(Area::from_mm2(area_mm2), Money::new(cost))
}

fn ip(area_mm2: f64) -> Realization {
    Realization::new(Area::from_mm2(area_mm2), Money::ZERO)
}

/// SMD filter module price (calibrated so the solution-1 kit totals the
/// paper's 11.0).
const FILTER_MODULE_COST: f64 = 1.29;

/// The discrete passives common to every build-up.
fn discrete_passives() -> Vec<BomItem> {
    vec![
        BomItem::passive("decoupling C 3.3 nF", 8)
            .with_smd(smd(4.5, 0.10))
            .with_integrated(ip(33.0)),
        BomItem::passive("bias/pull-up R 100 kΩ", 35)
            .with_smd(smd(3.75, 0.02))
            .with_integrated(ip(TABLE1_IP_R_100K_MM2)),
        BomItem::passive("RF/coupling C ≤50 pF", 45)
            .with_smd(smd(3.75, 0.03))
            .with_integrated(ip(TABLE1_IP_C_50P_MM2)),
        BomItem::passive("matching/choke L 40 nH", 20)
            .with_smd(smd(3.75, 0.15))
            .with_integrated(ip(TABLE1_IP_L_40N_MM2)),
    ]
}

/// The filter networks in the requested style.
fn filter_items(style: FilterStyle) -> Vec<BomItem> {
    match style {
        FilterStyle::Modules => vec![
            BomItem::passive("RF BP filter 1.575 GHz (module)", 1)
                .with_smd(smd(TABLE1_FILTER_SMD_MM2, FILTER_MODULE_COST)),
            BomItem::passive("IF BP filter 175 MHz (module)", 2)
                .with_smd(smd(TABLE1_FILTER_SMD_MM2, FILTER_MODULE_COST)),
            BomItem::passive("PLL loop filter (module)", 1)
                .with_smd(smd(TABLE1_FILTER_SMD_MM2, FILTER_MODULE_COST)),
        ],
        FilterStyle::Elements => vec![
            // The image-reject BP stays a block: its integrated form is
            // Table 1's 12 mm² 3-stage filter; as an SMD it is a module.
            BomItem::passive("RF BP filter 1.575 GHz", 1)
                .with_smd(smd(TABLE1_FILTER_SMD_MM2, FILTER_MODULE_COST))
                .with_integrated(ip(TABLE1_FILTER_IP_MM2)),
            // IF filters decomposed: 2 pole ⇒ 2 L + 3 C + 1 R per filter.
            // The integrated IF inductor needs wide lines for Q ⇒ 5 mm².
            BomItem::passive("IF filter L ~100 nH", 4)
                .with_smd(smd(3.75, 0.45))
                .with_integrated(ip(5.0)),
            BomItem::passive("IF filter C", 6)
                .with_smd(smd(3.75, 0.03))
                .with_integrated(ip(TABLE1_IP_C_50P_MM2)),
            BomItem::passive("IF filter termination R", 2)
                .with_smd(smd(3.75, 0.02))
                .with_integrated(ip(TABLE1_IP_R_100K_MM2)),
            // PLL loop filter decomposed: RC network.
            BomItem::passive("PLL filter R", 2)
                .with_smd(smd(3.75, 0.02))
                .with_integrated(ip(TABLE1_IP_R_100K_MM2)),
            BomItem::passive("PLL filter C", 2)
                .with_smd(smd(3.75, 0.03))
                .with_integrated(ip(TABLE1_IP_C_50P_MM2)),
        ],
    }
}

/// The full GPS front-end BOM for a build-up.
///
/// # Examples
///
/// ```
/// use ipass_core::{BuildUp, SelectionObjective};
/// use ipass_gps::bom::gps_bom;
///
/// let buildup = BuildUp::pcb_reference();
/// let plan = buildup.plan(&gps_bom(&buildup), SelectionObjective::MinArea)?;
/// assert_eq!(plan.smd_placements(), 112); // Table 2's "# SMD's"
/// # Ok::<(), ipass_core::PlanError>(())
/// ```
pub fn gps_bom(buildup: &BuildUp) -> Vec<BomItem> {
    let mut items = vec![die_item(&Chip::rf()), die_item(&Chip::dsp())];
    items.extend(discrete_passives());
    items.extend(filter_items(FilterStyle::for_buildup(buildup)));
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipass_core::SelectionObjective;

    fn plan(buildup: BuildUp) -> ipass_core::BuildUpPlan {
        buildup
            .plan(&gps_bom(&buildup), SelectionObjective::MinArea)
            .unwrap()
    }

    #[test]
    fn solution1_counts_match_table2() {
        let p = plan(BuildUp::pcb_reference());
        assert_eq!(p.smd_placements(), 112);
        assert_eq!(p.bond_count(), 0);
        // Kit cost ≈ the paper's 11.0.
        assert!(
            (p.smd_parts_cost().units() - 11.0).abs() < 0.1,
            "kit {}",
            p.smd_parts_cost()
        );
    }

    #[test]
    fn solution2_counts_match_table2() {
        let p = plan(BuildUp::mcm_wire_bond(PassivePolicy::AllSmd));
        assert_eq!(p.smd_placements(), 112);
        assert_eq!(p.bond_count(), 212);
    }

    #[test]
    fn solution3_integrates_everything() {
        let p = plan(BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated));
        assert_eq!(p.smd_placements(), 0);
        assert!(p.integrated_count() > 100);
    }

    #[test]
    fn solution4_keeps_exactly_12_smds() {
        // The paper's hybrid: 8 decaps + 4 IF inductors stay SMD.
        let p = plan(BuildUp::mcm_flip_chip(PassivePolicy::Optimized));
        assert_eq!(p.smd_placements(), 12);
        // And their kit costs the paper's 2.6.
        assert!(
            (p.smd_parts_cost().units() - 2.6).abs() < 1e-9,
            "kit {}",
            p.smd_parts_cost()
        );
        let smd_items: Vec<&str> = p
            .selections()
            .iter()
            .filter(|s| matches!(s.choice, ipass_core::Choice::Smd))
            .map(|s| s.item_name.as_str())
            .collect();
        assert_eq!(smd_items.len(), 2);
        assert!(smd_items.iter().any(|n| n.contains("decoupling")));
        assert!(smd_items.iter().any(|n| n.contains("IF filter L")));
    }

    #[test]
    fn component_areas_match_the_calibration() {
        // These sums drive Fig. 3; pin them down.
        let s1 = plan(BuildUp::pcb_reference()).component_area().mm2();
        assert!((s1 - 1911.0).abs() < 1.0, "S1 {s1}");
        let s2 = plan(BuildUp::mcm_wire_bond(PassivePolicy::AllSmd))
            .component_area()
            .mm2();
        assert!((s2 - 637.0).abs() < 1.0, "S2 {s2}");
        let s3 = plan(BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated))
            .component_area()
            .mm2();
        assert!((s3 - 413.65).abs() < 1.0, "S3 {s3}");
        let s4 = plan(BuildUp::mcm_flip_chip(PassivePolicy::Optimized))
            .component_area()
            .mm2();
        assert!((s4 - 180.65).abs() < 1.0, "S4 {s4}");
    }

    #[test]
    fn filter_style_follows_policy() {
        assert_eq!(
            FilterStyle::for_buildup(&BuildUp::pcb_reference()),
            FilterStyle::Modules
        );
        assert_eq!(
            FilterStyle::for_buildup(&BuildUp::mcm_wire_bond(PassivePolicy::AllSmd)),
            FilterStyle::Modules
        );
        assert_eq!(
            FilterStyle::for_buildup(&BuildUp::mcm_flip_chip(PassivePolicy::Optimized)),
            FilterStyle::Elements
        );
    }

    #[test]
    fn about_60_filtering_passives() {
        // §4: "the filtering networks including decoupling and pull-up
        // resistors require about 60 passive components": the decomposed
        // filter elements + decaps + matching parts ≈ 60.
        let buildup = BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated);
        let filtering: u32 = gps_bom(&buildup)
            .iter()
            .filter(|i| {
                i.name().contains("filter")
                    || i.name().contains("decoupling")
                    || i.name().contains("matching")
                    || i.name().contains("BP")
            })
            .map(|i| i.quantity())
            .sum();
        assert!(
            (40..=70).contains(&filtering),
            "filtering passives {filtering}"
        );
    }
}
