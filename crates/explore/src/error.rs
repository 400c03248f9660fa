//! Errors reported when defining or running an exploration.

use ipass_moe::FlowError;
use std::error::Error;
use std::fmt;

/// Error defining or running a design-space exploration.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExploreError {
    /// The exploration defines no axes — there is no space to sample.
    NoAxes,
    /// The exploration defines no objectives — no dominance order
    /// exists, so "frontier" is meaningless.
    NoObjectives,
    /// An axis has no levels.
    EmptyAxis {
        /// Name of the offending axis.
        axis: String,
    },
    /// An axis range is unusable: a non-finite bound or explicit level,
    /// or `lo > hi`.
    InvalidAxisRange {
        /// Name of the offending axis.
        axis: String,
        /// Lower bound as given.
        lo: f64,
        /// Upper bound as given.
        hi: f64,
    },
    /// A probability-valued axis (a test coverage) reaches outside
    /// `[0, 1]`.
    ProbabilityAxisOutOfRange {
        /// Name of the offending axis.
        axis: String,
        /// Lower bound as given.
        lo: f64,
        /// Upper bound as given.
        hi: f64,
    },
    /// A sampler asks for more points than one exploration supports.
    TooManyPoints {
        /// The number of points asked for (a full grid's product
        /// saturates at `u128::MAX`).
        points: u128,
        /// The supported maximum.
        limit: u64,
    },
    /// An evaluation produced a NaN objective — NaN has no place in a
    /// dominance order, so the point is rejected instead of silently
    /// winning or losing every comparison.
    NanObjective {
        /// Point index whose evaluation misbehaved.
        point: usize,
        /// Name of the offending objective.
        objective: String,
    },
    /// Two frontiers with different objective senses were diffed.
    SenseMismatch,
    /// Evaluating a point failed inside the production-flow layer.
    Flow(FlowError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::NoAxes => write!(f, "exploration has no axes"),
            ExploreError::NoObjectives => write!(f, "exploration has no objectives"),
            ExploreError::EmptyAxis { axis } => write!(f, "axis {axis:?} has no levels"),
            ExploreError::InvalidAxisRange { axis, lo, hi } => {
                write!(f, "axis {axis:?} has an invalid range [{lo}, {hi}]")
            }
            ExploreError::ProbabilityAxisOutOfRange { axis, lo, hi } => write!(
                f,
                "probability axis {axis:?} range [{lo}, {hi}] leaves [0, 1]"
            ),
            ExploreError::TooManyPoints { points, limit } => {
                write!(f, "sampler asks for {points} points (limit {limit})")
            }
            ExploreError::NanObjective { point, objective } => {
                write!(f, "point {point} produced NaN for objective {objective:?}")
            }
            ExploreError::SenseMismatch => {
                write!(
                    f,
                    "frontiers with different objective senses cannot be diffed"
                )
            }
            ExploreError::Flow(e) => write!(f, "flow evaluation failed: {e}"),
        }
    }
}

impl Error for ExploreError {}

impl From<FlowError> for ExploreError {
    fn from(e: FlowError) -> ExploreError {
        ExploreError::Flow(e)
    }
}
