//! The numbers the paper publishes, for paper-vs-measured reporting.

/// Names of the four implementations, in the paper's order.
pub const SOLUTION_NAMES: [&str; 4] = [
    "1: PCB/SMD (reference)",
    "2: MCM-D(Si)/WB/SMD",
    "3: MCM-D(Si)/FC/IP",
    "4: MCM-D(Si)/FC/IP&SMD",
];

/// Fig. 3: area consumed by the build-ups, percent of the PCB reference.
pub const FIG3_AREA_PERCENT: [f64; 4] = [100.0, 79.0, 60.0, 37.0];

/// Fig. 5: final cost, percent of the PCB reference
/// (penalties of 4.7 %, 12.8 % and 5.3 %).
pub const FIG5_COST_PERCENT: [f64; 4] = [100.0, 104.7, 112.8, 105.3];

/// §4.1 / Fig. 6: the performance scores.
pub const PERFORMANCE_SCORES: [f64; 4] = [1.0, 1.0, 0.45, 0.70];

/// Fig. 6: the figures of merit (product of factors).
pub const FIG6_FOM: [f64; 4] = [1.0, 1.2, 0.66, 1.8];

/// Table 2: the SMD placement counts per solution (solution 3 has none).
pub const SMD_COUNTS: [u32; 4] = [112, 112, 0, 12];

/// Table 2: total wire bonds in solution 2.
pub const BOND_COUNT: u32 = 212;

/// Fig. 4's illustrative Monte Carlo outcome: modules shipped and
/// scrapped in the pictured run.
pub const FIG4_SHIPPED: u64 = 7799;
/// Fig. 4: scrapped modules in the pictured run.
pub const FIG4_SCRAPPED: u64 = 208;
/// Fig. 4: units started (shipped + scrapped).
pub const FIG4_STARTED: u64 = FIG4_SHIPPED + FIG4_SCRAPPED;

/// §2: CrSi sheet resistance quoted by the paper (Ω/sq).
pub const CRSI_SHEET_OHM_SQ: f64 = 360.0;

/// §2: capacitance density quoted by the paper (pF/mm²).
pub const CAP_DENSITY_PF_MM2: f64 = 100.0;

/// Table 1 anchor areas (mm²) for the integrated passives.
pub const TABLE1_IP_R_100K_MM2: f64 = 0.25;
/// Table 1: 50 pF integrated capacitor area (mm²).
pub const TABLE1_IP_C_50P_MM2: f64 = 0.3;
/// Table 1: 40 nH integrated inductor area (mm²).
pub const TABLE1_IP_L_40N_MM2: f64 = 1.0;
/// Table 1: SMD filter module area (mm²).
pub const TABLE1_FILTER_SMD_MM2: f64 = 27.5;
/// Table 1: integrated 3-stage filter area (mm²).
pub const TABLE1_FILTER_IP_MM2: f64 = 12.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(FIG4_STARTED, 8007);
        assert_eq!(SOLUTION_NAMES.len(), 4);
        // The paper's own FoM arithmetic: perf × (1/size) × (1/cost).
        for i in 0..4 {
            let fom = PERFORMANCE_SCORES[i]
                * (100.0 / FIG3_AREA_PERCENT[i])
                * (100.0 / FIG5_COST_PERCENT[i]);
            assert!(
                (fom - FIG6_FOM[i]).abs() < 0.1,
                "solution {}: fom {} vs published {}",
                i + 1,
                fom,
                FIG6_FOM[i]
            );
        }
    }

    #[test]
    fn section2_constants_match_the_thin_film_models() {
        use ipass_passives::{DielectricFilm, ResistiveFilm};
        assert_eq!(
            ResistiveFilm::cr_si().sheet_resistance_ohm_sq(),
            CRSI_SHEET_OHM_SQ
        );
        assert_eq!(DielectricFilm::si3n4().density_pf_mm2(), CAP_DENSITY_PF_MM2);
    }
}
