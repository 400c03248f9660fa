//! An evaluated design space: every screened point with its objective
//! values, the Pareto frontier over them, and its artifact form.
//!
//! [`FlowExplorer::explore`](crate::FlowExplorer::explore) builds one;
//! [`FlowExplorer::refine`](crate::FlowExplorer::refine) keeps it as
//! the screen of its [`Refined`](crate::Refined).

use crate::pareto::{DesignPoint, ParetoFrontier, Sense};

/// An evaluated design space: every sampled point with its objective
/// values, plus the extracted Pareto frontier.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Axis names, aligned with every point's `coords`.
    pub axes: Vec<String>,
    /// Objective names, aligned with every point's `objectives`.
    pub objectives: Vec<String>,
    /// Objective senses, aligned with `objectives`.
    pub senses: Vec<Sense>,
    /// All evaluated points; position equals `DesignPoint::index`.
    pub points: Vec<DesignPoint>,
    /// The non-dominated subset.
    pub frontier: ParetoFrontier,
}

impl Exploration {
    /// The exploration as a typed [`FrontierPlot`] artifact: every
    /// screened point with its frontier-membership flag, the senses
    /// mapped onto report directions.
    ///
    /// [`FrontierPlot`]: ipass_report::FrontierPlot
    pub fn frontier_plot(&self, title: impl Into<String>) -> ipass_report::FrontierPlot {
        let mut on_frontier = vec![false; self.points.len()];
        for index in self.frontier.indices() {
            on_frontier[index] = true;
        }
        ipass_report::FrontierPlot::new(
            title,
            self.axes.clone(),
            self.objectives.clone(),
            self.senses.iter().map(|s| direction(*s)).collect(),
            self.points
                .iter()
                .map(|p| ipass_report::FrontierPoint {
                    index: p.index,
                    coords: p.coords.clone(),
                    objectives: p.objectives.clone(),
                    on_frontier: on_frontier[p.index],
                    confirmed: None,
                })
                .collect(),
        )
    }
}

/// Map a dominance sense onto a report direction.
fn direction(sense: Sense) -> ipass_report::Direction {
    match sense {
        Sense::Minimize => ipass_report::Direction::LowerIsBetter,
        Sense::Maximize => ipass_report::Direction::HigherIsBetter,
    }
}
