//! The design-space sampler: the full grid, addressed by index.
//!
//! [`SamplerSpec::Grid`] turns a set of [`Axis`] definitions into a
//! crate-private `PointSet`: a *virtual* list of coordinate vectors
//! addressed by index. Point `i` decodes `i` in mixed radix over the
//! axes' levels, so coordinates are a pure function of `(axes, index)`:
//! nothing about scheduling or thread count enters any coordinate, and
//! point sets never have to be materialized to be fanned out.

use crate::error::ExploreError;
use crate::space::{Axis, Levels};

/// The point-count ceiling for a single exploration. Points are
/// addressed by `usize` index, so the grid's point count must convert
/// to `usize` losslessly on every target, 32-bit ones included.
const MAX_POINTS: u64 = u32::MAX as u64;

/// How to sample the design space.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerSpec {
    /// The full cartesian grid over every axis's levels (at most
    /// `u32::MAX` points).
    Grid,
}

impl SamplerSpec {
    /// Resolve the spec against concrete axes.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] when there are no axes, an axis is
    /// degenerate, or the point count exceeds the supported size.
    pub(crate) fn points(&self, axes: &[Axis]) -> Result<PointSet, ExploreError> {
        if axes.is_empty() {
            return Err(ExploreError::NoAxes);
        }
        for axis in axes {
            axis.levels.validate(&axis.name)?;
        }
        let levels: Vec<Levels> = axes.iter().map(|a| a.levels.clone()).collect();
        // Saturating: a product past `u128::MAX` is still too many. Every
        // validated axis has at least one level, so the grid is never
        // empty.
        let len = levels
            .iter()
            .fold(1u128, |n, l| n.saturating_mul(l.count() as u128));
        if len > u128::from(MAX_POINTS) {
            return Err(ExploreError::TooManyPoints {
                points: len,
                limit: MAX_POINTS,
            });
        }
        Ok(PointSet {
            levels,
            len: len as usize,
        })
    }
}

/// A resolved, index-addressable grid of sample points (see the module
/// docs for the determinism contract).
#[derive(Debug, Clone)]
pub(crate) struct PointSet {
    levels: Vec<Levels>,
    len: usize,
}

impl PointSet {
    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The coordinates of point `i`, one value per axis.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub(crate) fn coords(&self, i: usize) -> Vec<f64> {
        assert!(i < self.len, "point {i} out of {}", self.len);
        // Mixed-radix decode, first axis slowest.
        let mut rest = i;
        let mut coords = vec![0.0; self.levels.len()];
        for (j, levels) in self.levels.iter().enumerate().rev() {
            let n = levels.count();
            coords[j] = levels.level(rest % n);
            rest /= n;
        }
        coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Axis;

    fn axes() -> Vec<Axis> {
        vec![
            Axis::new("a", Levels::linspace(0.0, 1.0, 4)),
            Axis::new("b", Levels::explicit([10.0, 20.0, 30.0])),
        ]
    }

    #[test]
    fn grid_enumerates_the_cartesian_product() {
        let pts = SamplerSpec::Grid.points(&axes()).unwrap();
        assert_eq!(pts.len(), 12);
        assert_eq!(pts.coords(0), vec![0.0, 10.0]);
        assert_eq!(pts.coords(1), vec![0.0, 20.0]);
        assert_eq!(pts.coords(3), vec![1.0 / 3.0, 10.0]);
        assert_eq!(pts.coords(11), vec![1.0, 30.0]);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(matches!(
            SamplerSpec::Grid.points(&[]),
            Err(ExploreError::NoAxes)
        ));
        let huge = vec![Axis::new("x", Levels::linspace(0.0, 1.0, 1 << 17)); 3];
        assert!(matches!(
            SamplerSpec::Grid.points(&huge),
            Err(ExploreError::TooManyPoints { .. })
        ));
        // 65 536⁸ = 2¹²⁸ points overflows even a u128 product.
        let overflowing = vec![Axis::new("x", Levels::linspace(0.0, 1.0, 1 << 16)); 8];
        assert!(matches!(
            SamplerSpec::Grid.points(&overflowing),
            Err(ExploreError::TooManyPoints {
                points: u128::MAX,
                ..
            })
        ));
    }
}
