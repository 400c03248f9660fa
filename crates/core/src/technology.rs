//! Technology descriptors and build-up generation (methodology step 1).

use std::fmt;

/// The carrier technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubstrateTech {
    /// Conventional FR4 printed circuit board.
    Pcb,
    /// Thin-film multichip module on silicon (MCM-D(Si)).
    McmDSi,
}

impl SubstrateTech {
    /// Whether this substrate can embed integrated passives.
    pub fn supports_integrated_passives(self) -> bool {
        matches!(self, SubstrateTech::McmDSi)
    }
}

impl fmt::Display for SubstrateTech {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SubstrateTech::Pcb => "PCB",
            SubstrateTech::McmDSi => "MCM-D(Si)",
        })
    }
}

/// The first-level interconnect for the active dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DieAttach {
    /// Packaged parts (QFP) soldered like any SMD — the PCB reference.
    Packaged,
    /// Bare die, wire bonded.
    WireBond,
    /// Bare die, flip chip.
    FlipChip,
}

impl fmt::Display for DieAttach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DieAttach::Packaged => "packaged",
            DieAttach::WireBond => "WB",
            DieAttach::FlipChip => "FC",
        })
    }
}

/// How passives are implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassivePolicy {
    /// Every passive is a mounted SMD.
    AllSmd,
    /// Every passive that *can* be integrated is integrated (the paper's
    /// solution 3).
    AllIntegrated,
    /// Per component, the smaller (or cheaper, per the objective)
    /// realization wins — the paper's "passives optimized" solution 4.
    Optimized,
}

impl fmt::Display for PassivePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PassivePolicy::AllSmd => "SMD",
            PassivePolicy::AllIntegrated => "IP",
            PassivePolicy::Optimized => "IP&SMD",
        })
    }
}

/// A physical build-up: substrate + die attach + passive policy.
///
/// # Examples
///
/// ```
/// use ipass_core::{BuildUp, PassivePolicy};
///
/// let four = BuildUp::paper_solutions();
/// assert_eq!(four.len(), 4);
/// assert_eq!(four[3].to_string(), "MCM-D(Si)/FC/IP&SMD");
/// assert!(BuildUp::enumerate().len() >= 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuildUp {
    substrate: SubstrateTech,
    die_attach: DieAttach,
    passives: PassivePolicy,
}

impl BuildUp {
    /// Construct an arbitrary build-up.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent combinations: a PCB cannot integrate
    /// passives or carry bare dies, and an MCM does not host packaged
    /// parts.
    pub fn new(
        substrate: SubstrateTech,
        die_attach: DieAttach,
        passives: PassivePolicy,
    ) -> BuildUp {
        match substrate {
            SubstrateTech::Pcb => {
                assert!(
                    die_attach == DieAttach::Packaged,
                    "PCB build-ups use packaged parts, not {die_attach}"
                );
                assert!(
                    passives == PassivePolicy::AllSmd,
                    "PCB cannot embed integrated passives"
                );
            }
            SubstrateTech::McmDSi => {
                assert!(
                    die_attach != DieAttach::Packaged,
                    "MCM-D carries bare dies, not packaged parts"
                );
            }
        }
        BuildUp {
            substrate,
            die_attach,
            passives,
        }
    }

    /// The PCB/SMD reference (the paper's solution 1).
    pub fn pcb_reference() -> BuildUp {
        BuildUp::new(
            SubstrateTech::Pcb,
            DieAttach::Packaged,
            PassivePolicy::AllSmd,
        )
    }

    /// MCM-D with wire-bonded dies (solution 2 uses `AllSmd`).
    pub fn mcm_wire_bond(passives: PassivePolicy) -> BuildUp {
        BuildUp::new(SubstrateTech::McmDSi, DieAttach::WireBond, passives)
    }

    /// MCM-D with flip-chip dies (solutions 3 and 4).
    pub fn mcm_flip_chip(passives: PassivePolicy) -> BuildUp {
        BuildUp::new(SubstrateTech::McmDSi, DieAttach::FlipChip, passives)
    }

    /// The four implementations evaluated in the paper, in order.
    pub fn paper_solutions() -> [BuildUp; 4] {
        [
            BuildUp::pcb_reference(),
            BuildUp::mcm_wire_bond(PassivePolicy::AllSmd),
            BuildUp::mcm_flip_chip(PassivePolicy::AllIntegrated),
            BuildUp::mcm_flip_chip(PassivePolicy::Optimized),
        ]
    }

    /// Every structurally viable build-up (methodology step 1's search
    /// space; the paper prunes this to its four candidates).
    pub fn enumerate() -> Vec<BuildUp> {
        let mut all = vec![BuildUp::pcb_reference()];
        for attach in [DieAttach::WireBond, DieAttach::FlipChip] {
            for policy in [
                PassivePolicy::AllSmd,
                PassivePolicy::AllIntegrated,
                PassivePolicy::Optimized,
            ] {
                all.push(BuildUp::new(SubstrateTech::McmDSi, attach, policy));
            }
        }
        all
    }

    /// The substrate technology.
    pub fn substrate(&self) -> SubstrateTech {
        self.substrate
    }

    /// The die attach technology.
    pub fn die_attach(&self) -> DieAttach {
        self.die_attach
    }

    /// The passive implementation policy.
    pub fn passives(&self) -> PassivePolicy {
        self.passives
    }
}

impl fmt::Display for BuildUp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.substrate {
            SubstrateTech::Pcb => write!(f, "PCB/SMD"),
            SubstrateTech::McmDSi => {
                write!(
                    f,
                    "{}/{}/{}",
                    self.substrate, self.die_attach, self.passives
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_solutions_match_section_4_1() {
        let s = BuildUp::paper_solutions();
        assert_eq!(s[0].to_string(), "PCB/SMD");
        assert_eq!(s[1].to_string(), "MCM-D(Si)/WB/SMD");
        assert_eq!(s[2].to_string(), "MCM-D(Si)/FC/IP");
        assert_eq!(s[3].to_string(), "MCM-D(Si)/FC/IP&SMD");
    }

    #[test]
    fn enumerate_contains_the_paper_set() {
        let all = BuildUp::enumerate();
        assert_eq!(all.len(), 7);
        for s in BuildUp::paper_solutions() {
            assert!(all.contains(&s), "{s} missing from enumeration");
        }
        // No duplicates.
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a));
        }
    }

    #[test]
    fn capability_flags() {
        assert!(!SubstrateTech::Pcb.supports_integrated_passives());
        assert!(SubstrateTech::McmDSi.supports_integrated_passives());
    }

    #[test]
    #[should_panic(expected = "integrated passives")]
    fn pcb_with_ip_rejected() {
        let _ = BuildUp::new(
            SubstrateTech::Pcb,
            DieAttach::Packaged,
            PassivePolicy::AllIntegrated,
        );
    }

    #[test]
    #[should_panic(expected = "bare dies")]
    fn mcm_with_packaged_rejected() {
        let _ = BuildUp::new(
            SubstrateTech::McmDSi,
            DieAttach::Packaged,
            PassivePolicy::AllSmd,
        );
    }

    #[test]
    #[should_panic(expected = "packaged parts")]
    fn pcb_with_flip_chip_rejected() {
        let _ = BuildUp::new(
            SubstrateTech::Pcb,
            DieAttach::FlipChip,
            PassivePolicy::AllSmd,
        );
    }

    #[test]
    fn accessors() {
        let b = BuildUp::mcm_flip_chip(PassivePolicy::Optimized);
        assert_eq!(b.substrate(), SubstrateTech::McmDSi);
        assert_eq!(b.die_attach(), DieAttach::FlipChip);
        assert_eq!(b.passives(), PassivePolicy::Optimized);
    }
}
