//! Figure of merit and decision table (methodology step 5, Fig. 6).

use ipass_units::{Area, Money};
use std::error::Error;
use std::fmt;

/// Exponent weights for the figure-of-merit product. The paper uses the
/// plain product (all weights 1); "for more complicated cases weighting
/// factors can also be introduced".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FomWeights {
    /// Exponent on the performance factor.
    pub performance: f64,
    /// Exponent on the 1/size factor.
    pub size: f64,
    /// Exponent on the 1/cost factor.
    pub cost: f64,
}

impl FomWeights {
    /// The paper's unweighted product.
    pub fn unweighted() -> FomWeights {
        FomWeights {
            performance: 1.0,
            size: 1.0,
            cost: 1.0,
        }
    }
}

impl Default for FomWeights {
    fn default() -> FomWeights {
        FomWeights::unweighted()
    }
}

/// The per-candidate inputs to the decision: the outputs of methodology
/// steps 2–4.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Candidate name (e.g. "MCM-D(Si)/FC/IP&SMD").
    pub name: String,
    /// Performance score in `(0, 1]` from the RF assessment.
    pub performance: f64,
    /// Module area (Fig. 3's quantity).
    pub module_area: Area,
    /// Final cost per shipped unit (Eq. 1).
    pub final_cost: Money,
}

impl CandidateScore {
    /// Create a candidate entry.
    ///
    /// # Panics
    ///
    /// Panics when performance is outside `(0, 1]` or area/cost are
    /// non-positive.
    pub fn new(
        name: impl Into<String>,
        performance: f64,
        module_area: Area,
        final_cost: Money,
    ) -> CandidateScore {
        assert!(
            performance > 0.0 && performance <= 1.0,
            "performance score must be in (0, 1], got {performance}"
        );
        assert!(module_area.mm2() > 0.0, "module area must be positive");
        assert!(final_cost.units() > 0.0, "final cost must be positive");
        CandidateScore {
            name: name.into(),
            performance,
            module_area,
            final_cost,
        }
    }
}

/// One row of the Fig. 6 decision table.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRow {
    /// Candidate name.
    pub name: String,
    /// Performance factor.
    pub performance: f64,
    /// Size relative to the reference (1.0 = same area).
    pub size_ratio: f64,
    /// Cost relative to the reference (1.0 = same cost).
    pub cost_ratio: f64,
    /// The figure of merit `perf^wp · (1/size)^ws · (1/cost)^wc`.
    pub fom: f64,
}

/// Error computing a decision table.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DecisionError {
    /// The named reference candidate is not in the list.
    UnknownReference {
        /// The requested reference name.
        name: String,
    },
    /// No candidates were supplied.
    NoCandidates,
}

impl fmt::Display for DecisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionError::UnknownReference { name } => {
                write!(f, "reference candidate {name:?} not found")
            }
            DecisionError::NoCandidates => write!(f, "no candidates to rank"),
        }
    }
}

impl Error for DecisionError {}

/// The Fig. 6 decision table: every candidate normalized to a reference
/// and ranked by figure of merit.
///
/// # Examples
///
/// ```
/// use ipass_core::{CandidateScore, DecisionTable, FomWeights};
/// use ipass_units::{Area, Money};
///
/// let rows = DecisionTable::rank(
///     &[
///         CandidateScore::new("PCB/SMD", 1.0, Area::from_mm2(1878.0), Money::new(262.3)),
///         CandidateScore::new("MCM/FC/IP&SMD", 0.70, Area::from_mm2(695.0), Money::new(276.2)),
///     ],
///     "PCB/SMD",
///     FomWeights::unweighted(),
/// )?;
/// let best = rows.best();
/// assert_eq!(best.name, "MCM/FC/IP&SMD");
/// assert!(best.fom > 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTable {
    reference: String,
    rows: Vec<DecisionRow>,
}

impl DecisionTable {
    /// Normalize `candidates` to the one named `reference` and compute
    /// the figures of merit. Rows keep the input order (the paper's
    /// table); use [`best`](DecisionTable::best) for the ranking.
    ///
    /// # Errors
    ///
    /// Returns [`DecisionError`] when the candidate list is empty or the
    /// reference is unknown.
    pub fn rank(
        candidates: &[CandidateScore],
        reference: &str,
        weights: FomWeights,
    ) -> Result<DecisionTable, DecisionError> {
        if candidates.is_empty() {
            return Err(DecisionError::NoCandidates);
        }
        let reference_candidate =
            candidates
                .iter()
                .find(|c| c.name == reference)
                .ok_or_else(|| DecisionError::UnknownReference {
                    name: reference.to_owned(),
                })?;
        let ref_area = reference_candidate.module_area;
        let ref_cost = reference_candidate.final_cost;
        let rows = candidates
            .iter()
            .map(|c| {
                let size_ratio = c.module_area / ref_area;
                let cost_ratio = c.final_cost / ref_cost;
                let fom = c.performance.powf(weights.performance)
                    * (1.0 / size_ratio).powf(weights.size)
                    * (1.0 / cost_ratio).powf(weights.cost);
                DecisionRow {
                    name: c.name.clone(),
                    performance: c.performance,
                    size_ratio,
                    cost_ratio,
                    fom,
                }
            })
            .collect();
        Ok(DecisionTable {
            reference: reference.to_owned(),
            rows,
        })
    }

    /// The rows, in input order.
    pub fn rows(&self) -> &[DecisionRow] {
        &self.rows
    }

    /// The row with the highest figure of merit.
    pub fn best(&self) -> &DecisionRow {
        self.rows
            .iter()
            .max_by(|a, b| {
                a.fom
                    .partial_cmp(&b.fom)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("table is never empty")
    }

    /// The decision as a typed artifact table: one row per candidate
    /// with the normalized factors and the figure of merit, the winner
    /// marked `◀ best`.
    pub fn artifact(&self) -> ipass_report::Table {
        self.artifact_titled(format!("decision table (reference: {})", self.reference))
    }

    /// [`DecisionTable::artifact`] with an explicit title.
    pub fn artifact_titled(&self, title: impl Into<String>) -> ipass_report::Table {
        use ipass_report::Cell;
        let best = self.best().name.clone();
        self.rows.iter().fold(
            ipass_report::Table::new(title)
                .text_column("implementation")
                .numeric_column("perf.", 2)
                .numeric_column("size ×", 2)
                .numeric_column("cost ×", 3)
                .numeric_column("FoM", 2)
                .text_column(""),
            |t, row| {
                t.row(vec![
                    Cell::text(&row.name),
                    Cell::num(row.performance),
                    Cell::num(row.size_ratio),
                    Cell::num(row.cost_ratio),
                    Cell::num(row.fom),
                    Cell::text(if row.name == best { "◀ best" } else { "" }),
                ])
            },
        )
    }

    /// Render the Fig. 6 style table (the artifact pipeline's aligned
    /// txt sink; the old ad-hoc formatter is gone).
    pub fn render(&self) -> String {
        self.artifact().to_txt()
    }
}

impl fmt::Display for DecisionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_candidates() -> Vec<CandidateScore> {
        // The paper's Fig. 6 inputs: perf, area %, cost %.
        vec![
            CandidateScore::new("1 PCB/SMD", 1.0, Area::from_mm2(1000.0), Money::new(100.0)),
            CandidateScore::new(
                "2 MCM/WB/SMD",
                1.0,
                Area::from_mm2(790.0),
                Money::new(104.7),
            ),
            CandidateScore::new(
                "3 MCM/FC/IP",
                0.45,
                Area::from_mm2(600.0),
                Money::new(112.8),
            ),
            CandidateScore::new(
                "4 MCM/FC/IP&SMD",
                0.70,
                Area::from_mm2(370.0),
                Money::new(105.3),
            ),
        ]
    }

    #[test]
    fn reproduces_fig6() {
        let table = DecisionTable::rank(&paper_candidates(), "1 PCB/SMD", FomWeights::unweighted())
            .unwrap();
        let foms: Vec<f64> = table.rows().iter().map(|r| r.fom).collect();
        assert!((foms[0] - 1.0).abs() < 1e-12);
        assert!((foms[1] - 1.2).abs() < 0.05, "sol2 {}", foms[1]);
        assert!((foms[2] - 0.66).abs() < 0.05, "sol3 {}", foms[2]);
        assert!((foms[3] - 1.8).abs() < 0.05, "sol4 {}", foms[3]);
        assert_eq!(table.best().name, "4 MCM/FC/IP&SMD");
    }

    #[test]
    fn weights_can_flip_the_decision() {
        // Weighting performance heavily favors the full-spec solutions.
        let heavy_perf = FomWeights {
            performance: 6.0,
            size: 1.0,
            cost: 1.0,
        };
        let table = DecisionTable::rank(&paper_candidates(), "1 PCB/SMD", heavy_perf).unwrap();
        assert_eq!(table.best().name, "2 MCM/WB/SMD");
    }

    #[test]
    fn reference_ratios_are_unity() {
        let table =
            DecisionTable::rank(&paper_candidates(), "1 PCB/SMD", FomWeights::default()).unwrap();
        let reference_row = &table.rows()[0];
        assert_eq!(reference_row.size_ratio, 1.0);
        assert_eq!(reference_row.cost_ratio, 1.0);
        assert_eq!(
            table.artifact().title,
            "decision table (reference: 1 PCB/SMD)"
        );
    }

    #[test]
    fn unknown_reference_is_an_error() {
        let err =
            DecisionTable::rank(&paper_candidates(), "nope", FomWeights::default()).unwrap_err();
        assert!(matches!(err, DecisionError::UnknownReference { .. }));
    }

    #[test]
    fn empty_candidates_is_an_error() {
        let err = DecisionTable::rank(&[], "x", FomWeights::default()).unwrap_err();
        assert_eq!(err, DecisionError::NoCandidates);
    }

    #[test]
    #[should_panic(expected = "performance score")]
    fn out_of_range_performance_rejected() {
        let _ = CandidateScore::new("bad", 1.5, Area::from_mm2(1.0), Money::new(1.0));
    }

    #[test]
    fn render_marks_the_winner() {
        let table =
            DecisionTable::rank(&paper_candidates(), "1 PCB/SMD", FomWeights::default()).unwrap();
        let text = table.render();
        assert!(text.contains("◀ best"));
        assert!(text.contains("IP&SMD"));
    }
}
