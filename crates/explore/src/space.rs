//! Axes: the named dimensions of a design space.

use crate::error::ExploreError;

/// The values an [`Axis`] can take.
#[derive(Debug, Clone, PartialEq)]
pub enum Levels {
    /// `count` evenly spaced values covering `[lo, hi]` inclusive.
    Linear {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Number of grid levels (≥ 1; a single level sits at `lo`).
        count: usize,
    },
    /// An explicit list of values, sampled as given.
    Explicit(Vec<f64>),
}

impl Levels {
    /// `count` evenly spaced levels covering `[lo, hi]` inclusive.
    pub fn linspace(lo: f64, hi: f64, count: usize) -> Levels {
        Levels::Linear { lo, hi, count }
    }

    /// An explicit list of levels.
    pub fn explicit(values: impl Into<Vec<f64>>) -> Levels {
        Levels::Explicit(values.into())
    }

    /// Number of grid levels.
    pub fn count(&self) -> usize {
        match self {
            Levels::Linear { count, .. } => *count,
            Levels::Explicit(values) => values.len(),
        }
    }

    /// The `i`-th grid level.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.count()` (indices come from the sampler,
    /// which derives them from this very count).
    pub fn level(&self, i: usize) -> f64 {
        match self {
            Levels::Linear { lo, hi, count } => {
                assert!(i < *count, "level {i} out of {count}");
                if *count == 1 {
                    *lo
                } else {
                    lo + (hi - lo) * i as f64 / (*count as f64 - 1.0)
                }
            }
            Levels::Explicit(values) => values[i],
        }
    }

    /// `(lo, hi)` bounds of the axis.
    pub fn bounds(&self) -> (f64, f64) {
        match self {
            Levels::Linear { lo, hi, .. } => (*lo, *hi),
            Levels::Explicit(values) => values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                }),
        }
    }

    pub(crate) fn validate(&self, axis: &str) -> Result<(), ExploreError> {
        if self.count() == 0 {
            return Err(ExploreError::EmptyAxis { axis: axis.into() });
        }
        let (lo, hi) = self.bounds();
        // `bounds` folds with `f64::min`/`max`, which skip NaN, so an
        // explicit list is checked level by level.
        let non_finite = match self {
            Levels::Linear { .. } => !lo.is_finite() || !hi.is_finite(),
            Levels::Explicit(values) => values.iter().any(|v| !v.is_finite()),
        };
        if non_finite || lo > hi {
            return Err(ExploreError::InvalidAxisRange {
                axis: axis.into(),
                lo,
                hi,
            });
        }
        Ok(())
    }
}

/// One named dimension of a design space: what a [`SamplerSpec`]
/// samples. A [`FlowAxis`](crate::FlowAxis) wraps it with the patch
/// slot the value lands in.
///
/// [`SamplerSpec`]: crate::SamplerSpec
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Display name of the dimension.
    pub name: String,
    /// The values the dimension takes.
    pub levels: Levels,
}

impl Axis {
    /// A named axis over the given levels.
    pub fn new(name: impl Into<String>, levels: Levels) -> Axis {
        Axis {
            name: name.into(),
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_covers_inclusive_range() {
        let l = Levels::linspace(1.0, 3.0, 5);
        assert_eq!(l.count(), 5);
        assert_eq!(l.level(0), 1.0);
        assert_eq!(l.level(2), 2.0);
        assert_eq!(l.level(4), 3.0);
        assert_eq!(Levels::linspace(2.5, 9.0, 1).level(0), 2.5);
    }

    #[test]
    fn validation_catches_degenerate_axes() {
        assert!(matches!(
            Levels::explicit([]).validate("x"),
            Err(ExploreError::EmptyAxis { .. })
        ));
        assert!(matches!(
            Levels::linspace(3.0, 1.0, 4).validate("x"),
            Err(ExploreError::InvalidAxisRange { .. })
        ));
        assert!(matches!(
            Levels::linspace(0.0, f64::INFINITY, 4).validate("x"),
            Err(ExploreError::InvalidAxisRange { .. })
        ));
        assert!(Levels::linspace(0.0, 1.0, 4).validate("x").is_ok());
    }
}
