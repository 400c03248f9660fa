//! Technology selection and area aggregation (methodology steps 1 & 3).

use crate::bom::{BomItem, ItemRole, Realization};
use crate::technology::{BuildUp, DieAttach, PassivePolicy, SubstrateTech};
use ipass_layout::{BgaLaminate, SubstrateRule};
use ipass_units::{Area, Money};
use std::error::Error;
use std::fmt;

/// Objective driving the [`PassivePolicy::Optimized`] per-component
/// choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionObjective {
    /// Choose the smaller realization (the paper's rule: SMD wins
    /// whenever it consumes less area than the integrated part).
    MinArea,
    /// Choose the cheaper realization, pricing integrated area at the
    /// substrate's cost per cm² and adding per-placement assembly cost
    /// to SMDs.
    MinCost {
        /// Substrate cost per cm² (prices integrated area).
        substrate_cost_per_cm2: Money,
        /// Assembly cost per SMD placement.
        smd_assembly_cost: Money,
    },
}

/// Which realization was selected for an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Packaged part on the PCB.
    Packaged,
    /// Wire-bonded bare die.
    WireBond,
    /// Flip-chip bare die.
    FlipChip,
    /// Mounted SMD.
    Smd,
    /// Embedded in the substrate.
    Integrated,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Choice::Packaged => "packaged",
            Choice::WireBond => "wire bond",
            Choice::FlipChip => "flip chip",
            Choice::Smd => "SMD",
            Choice::Integrated => "integrated",
        })
    }
}

/// Error selecting realizations for a build-up.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// An item offers no realization compatible with the build-up.
    NoFeasibleRealization {
        /// The item's name.
        item: String,
        /// The build-up being planned.
        buildup: String,
    },
    /// The BOM is empty.
    EmptyBom,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoFeasibleRealization { item, buildup } => {
                write!(f, "item {item:?} has no feasible realization in {buildup}")
            }
            PlanError::EmptyBom => write!(f, "cannot plan an empty bill of materials"),
        }
    }
}

impl Error for PlanError {}

/// One selected line of the plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Index into the planned BOM.
    pub item_index: usize,
    /// Item name (copied for reporting convenience).
    pub item_name: String,
    /// Pieces.
    pub quantity: u32,
    /// The chosen realization kind.
    pub choice: Choice,
    /// The chosen realization data.
    pub realization: Realization,
}

/// The areas resulting from a plan (methodology step 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// Σ component areas (what the substrate must host).
    pub component_area: Area,
    /// The sized substrate (board for PCB, silicon for MCM).
    pub substrate_area: Area,
    /// The final module outline: the board itself for PCB, the BGA
    /// laminate for MCM — the quantity Fig. 3 compares.
    pub module_area: Area,
}

/// A build-up with concrete technology selections for every BOM item.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildUpPlan {
    buildup: BuildUp,
    selections: Vec<Selection>,
}

impl BuildUp {
    /// Select a realization for every BOM item under this build-up
    /// (methodology steps 1+3 preparation).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the BOM is empty or an item has no
    /// feasible realization for this build-up.
    pub fn plan(
        &self,
        items: &[BomItem],
        objective: SelectionObjective,
    ) -> Result<BuildUpPlan, PlanError> {
        if items.is_empty() {
            return Err(PlanError::EmptyBom);
        }
        let mut selections = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let (choice, realization) =
                select(self, item, objective).ok_or_else(|| PlanError::NoFeasibleRealization {
                    item: item.name().to_owned(),
                    buildup: self.to_string(),
                })?;
            selections.push(Selection {
                item_index: i,
                item_name: item.name().to_owned(),
                quantity: item.quantity(),
                choice,
                realization,
            });
        }
        Ok(BuildUpPlan {
            buildup: *self,
            selections,
        })
    }
}

fn select(
    buildup: &BuildUp,
    item: &BomItem,
    objective: SelectionObjective,
) -> Option<(Choice, Realization)> {
    match item.role() {
        ItemRole::Die => match buildup.die_attach() {
            DieAttach::Packaged => item.packaged().map(|r| (Choice::Packaged, *r)),
            DieAttach::WireBond => item.wire_bond().map(|r| (Choice::WireBond, *r)),
            DieAttach::FlipChip => item.flip_chip().map(|r| (Choice::FlipChip, *r)),
        },
        ItemRole::Passive => {
            let smd = item.smd().map(|r| (Choice::Smd, *r));
            if !buildup.substrate().supports_integrated_passives() {
                return smd;
            }
            let integrated = item.integrated().map(|r| (Choice::Integrated, *r));
            match buildup.passives() {
                PassivePolicy::AllSmd => smd,
                PassivePolicy::AllIntegrated => integrated.or(smd),
                PassivePolicy::Optimized => match (smd, integrated) {
                    (Some(s), Some(i)) => Some(pick(objective, s, i)),
                    (s, i) => s.or(i),
                },
            }
        }
    }
}

fn pick(
    objective: SelectionObjective,
    smd: (Choice, Realization),
    integrated: (Choice, Realization),
) -> (Choice, Realization) {
    match objective {
        SelectionObjective::MinArea => {
            // The paper's rule: "in case SMD components consume less area
            // than integrated passives, the SMD component is preferred".
            if smd.1.area().mm2() < integrated.1.area().mm2() {
                smd
            } else {
                integrated
            }
        }
        SelectionObjective::MinCost {
            substrate_cost_per_cm2,
            smd_assembly_cost,
        } => {
            let smd_cost =
                smd.1.unit_cost() + smd_assembly_cost + substrate_cost_per_cm2 * smd.1.area().cm2();
            let ip_cost =
                integrated.1.unit_cost() + substrate_cost_per_cm2 * integrated.1.area().cm2();
            if smd_cost.units() < ip_cost.units() {
                smd
            } else {
                integrated
            }
        }
    }
}

impl BuildUpPlan {
    /// The planned build-up.
    pub fn buildup(&self) -> &BuildUp {
        &self.buildup
    }

    /// Per-item selections.
    pub fn selections(&self) -> &[Selection] {
        &self.selections
    }

    /// Σ selected component areas.
    pub fn component_area(&self) -> Area {
        self.selections
            .iter()
            .map(|s| s.realization.area() * f64::from(s.quantity))
            .sum()
    }

    /// Number of SMD placements (pick-and-place operations), including
    /// packaged parts on the PCB.
    pub fn smd_placements(&self) -> u32 {
        self.selections
            .iter()
            .filter(|s| matches!(s.choice, Choice::Smd))
            .map(|s| s.quantity)
            .sum()
    }

    /// Purchase cost of all SMD-mounted passives.
    pub fn smd_parts_cost(&self) -> Money {
        self.selections
            .iter()
            .filter(|s| matches!(s.choice, Choice::Smd))
            .map(|s| s.realization.unit_cost() * f64::from(s.quantity))
            .sum()
    }

    /// Total wire bonds required.
    pub fn bond_count(&self) -> u32 {
        self.selections
            .iter()
            .filter(|s| matches!(s.choice, Choice::WireBond))
            .map(|s| s.quantity * s.realization.bonds())
            .sum()
    }

    /// Number of integrated passives embedded in the substrate.
    pub fn integrated_count(&self) -> u32 {
        self.selections
            .iter()
            .filter(|s| matches!(s.choice, Choice::Integrated))
            .map(|s| s.quantity)
            .sum()
    }

    /// Apply the layout sizing rules (methodology step 3).
    pub fn area(&self) -> AreaBreakdown {
        let component_area = self.component_area();
        match self.buildup.substrate() {
            SubstrateTech::Pcb => {
                let board = SubstrateRule::pcb_double_sided().required_area(component_area);
                AreaBreakdown {
                    component_area,
                    substrate_area: board,
                    module_area: board,
                }
            }
            SubstrateTech::McmDSi => {
                let si = SubstrateRule::mcm_d_si().required_area(component_area);
                let module = BgaLaminate::standard().module_area(si);
                AreaBreakdown {
                    component_area,
                    substrate_area: si,
                    module_area: module,
                }
            }
        }
    }

    /// Render the selection table.
    pub fn render(&self) -> String {
        let mut out = format!("build-up: {}\n", self.buildup);
        for s in &self.selections {
            out.push_str(&format!(
                "  {:<28} ×{:<4} {:<11} {:>9.2} mm²  {:>8}\n",
                s.item_name,
                s.quantity,
                s.choice.to_string(),
                s.realization.area().mm2() * f64::from(s.quantity),
                (s.realization.unit_cost() * f64::from(s.quantity)).to_string(),
            ));
        }
        let a = self.area();
        out.push_str(&format!(
            "  Σ components {:.1} mm² → substrate {:.1} mm² → module {:.1} mm²\n",
            a.component_area.mm2(),
            a.substrate_area.mm2(),
            a.module_area.mm2()
        ));
        out
    }
}

impl fmt::Display for BuildUpPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decap() -> BomItem {
        BomItem::passive("decap", 8)
            .with_smd(Realization::new(Area::from_mm2(4.5), Money::new(0.10)))
            .with_integrated(Realization::new(Area::from_mm2(33.0), Money::ZERO))
    }

    fn pullup() -> BomItem {
        BomItem::passive("pull-up", 35)
            .with_smd(Realization::new(Area::from_mm2(3.75), Money::new(0.02)))
            .with_integrated(Realization::new(Area::from_mm2(0.25), Money::ZERO))
    }

    fn dies() -> Vec<BomItem> {
        vec![
            BomItem::die("RF")
                .with_packaged(Realization::new(Area::from_mm2(225.0), Money::new(90.0)))
                .with_wire_bond(
                    Realization::new(Area::from_mm2(28.0), Money::new(79.0)).with_bonds(100),
                )
                .with_flip_chip(Realization::new(Area::from_mm2(13.0), Money::new(79.0))),
            BomItem::die("DSP")
                .with_packaged(Realization::new(Area::from_mm2(1165.0), Money::new(130.0)))
                .with_wire_bond(
                    Realization::new(Area::from_mm2(88.0), Money::new(119.0)).with_bonds(112),
                )
                .with_flip_chip(Realization::new(Area::from_mm2(59.0), Money::new(119.0))),
        ]
    }

    fn full_bom() -> Vec<BomItem> {
        let mut bom = dies();
        bom.push(decap());
        bom.push(pullup());
        bom
    }

    #[test]
    fn pcb_plan_uses_packaged_and_smd() {
        let plan = BuildUp::pcb_reference()
            .plan(&full_bom(), SelectionObjective::MinArea)
            .unwrap();
        assert_eq!(plan.smd_placements(), 43);
        assert_eq!(plan.bond_count(), 0);
        assert_eq!(plan.integrated_count(), 0);
        let area = plan.area();
        assert_eq!(area.substrate_area, area.module_area);
    }

    #[test]
    fn all_integrated_plan_embeds_everything() {
        let plan = BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated)
            .plan(&full_bom(), SelectionObjective::MinArea)
            .unwrap();
        assert_eq!(plan.smd_placements(), 0);
        assert_eq!(plan.integrated_count(), 43);
        // Decaps integrated: 8 × 33 = 264 mm² dominate the passive area.
        assert!(plan.component_area().mm2() > 300.0);
    }

    #[test]
    fn optimized_plan_applies_the_paper_rule() {
        let plan = BuildUp::mcm_flip_chip(PassivePolicy::Optimized)
            .plan(&full_bom(), SelectionObjective::MinArea)
            .unwrap();
        // Decaps stay SMD (4.5 < 33), pull-ups integrate (0.25 < 3.75).
        assert_eq!(plan.smd_placements(), 8);
        assert_eq!(plan.integrated_count(), 35);
        assert!((plan.smd_parts_cost().units() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn wire_bond_plan_counts_bonds() {
        let plan = BuildUp::mcm_wire_bond(PassivePolicy::AllSmd)
            .plan(&full_bom(), SelectionObjective::MinArea)
            .unwrap();
        assert_eq!(plan.bond_count(), 212);
        let module = plan.area().module_area;
        let substrate = plan.area().substrate_area;
        assert!(module.mm2() > substrate.mm2(), "laminate adds edge");
    }

    #[test]
    fn min_cost_objective_can_flip_choices() {
        // With very expensive substrate area, even the pull-up prefers
        // SMD mounting despite its bigger footprint.
        let plan = BuildUp::mcm_flip_chip(PassivePolicy::Optimized)
            .plan(
                &[pullup()],
                SelectionObjective::MinCost {
                    substrate_cost_per_cm2: Money::new(2.25),
                    smd_assembly_cost: Money::new(0.01),
                },
            )
            .unwrap();
        // SMD: 0.02 + 0.01 + 2.25×0.0375 = 0.114; IP: 2.25×0.0025 = 0.006.
        // Integrated still wins here; verify the computation picks it.
        assert_eq!(plan.integrated_count(), 35);

        // Now price the substrate absurdly high — SMD wins because its
        // footprint rides on cheap... still substrate. Use a bigger IP
        // area instead: the decap case.
        let plan = BuildUp::mcm_flip_chip(PassivePolicy::Optimized)
            .plan(
                &[decap()],
                SelectionObjective::MinCost {
                    substrate_cost_per_cm2: Money::new(2.25),
                    smd_assembly_cost: Money::new(0.01),
                },
            )
            .unwrap();
        // SMD: 0.10+0.01+2.25×0.045 = 0.211; IP: 2.25×0.33 = 0.743.
        assert_eq!(plan.smd_placements(), 8);
    }

    #[test]
    fn missing_realization_is_an_error() {
        let bare = BomItem::passive("weird part", 1); // no realizations at all
        let err = BuildUp::pcb_reference()
            .plan(&[bare], SelectionObjective::MinArea)
            .unwrap_err();
        assert!(matches!(err, PlanError::NoFeasibleRealization { .. }));
        assert!(err.to_string().contains("weird part"));
    }

    #[test]
    fn empty_bom_is_an_error() {
        let err = BuildUp::pcb_reference()
            .plan(&[], SelectionObjective::MinArea)
            .unwrap_err();
        assert_eq!(err, PlanError::EmptyBom);
    }

    #[test]
    fn all_integrated_falls_back_to_smd_when_infeasible() {
        // A crystal cannot be integrated; AllIntegrated keeps it SMD.
        let crystal = BomItem::passive("crystal", 1)
            .with_smd(Realization::new(Area::from_mm2(10.0), Money::new(1.0)));
        let plan = BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated)
            .plan(&[crystal], SelectionObjective::MinArea)
            .unwrap();
        assert_eq!(plan.smd_placements(), 1);
    }

    #[test]
    fn render_lists_every_item() {
        let plan = BuildUp::mcm_flip_chip(PassivePolicy::Optimized)
            .plan(&full_bom(), SelectionObjective::MinArea)
            .unwrap();
        let text = plan.render();
        assert!(text.contains("decap") && text.contains("pull-up") && text.contains("module"));
    }
}
