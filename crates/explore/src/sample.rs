//! Deterministic design-space samplers.
//!
//! A sampler turns a set of [`Axis`] definitions into a [`PointSet`]: a
//! *virtual* list of coordinate vectors addressed by index. Coordinates
//! are a pure function of `(spec, axes, index)` — the full grid decodes
//! the index in mixed radix, the random sampler draws each point from
//! its own counter-based [`SimRng`] stream, and the Latin hypercube
//! shuffles its strata with seeded Fisher–Yates up front — so nothing
//! about scheduling or thread count enters any coordinate, and point
//! sets never have to be materialized to be fanned out.

use crate::error::ExploreError;
use crate::space::{Axis, Levels};
use ipass_sim::SimRng;

/// The point-count ceiling for a single exploration, whatever the
/// sampler: the Latin hypercube numbers its strata in `u32`, so every
/// permutation covers every point up to here.
const MAX_POINTS: u64 = u32::MAX as u64;

/// Stream tag separating the Latin-hypercube permutation draws from the
/// per-point jitter draws of the same seed.
const LHS_PERM_STREAM: u64 = 0x4C48_5F70_6572_6D73; // "LH_perms"

/// How to sample the design space.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerSpec {
    /// The full cartesian grid over every axis's levels (at most
    /// `u32::MAX` points).
    Grid,
    /// `points` uniform random points; point `i` draws its coordinates
    /// from `SimRng::stream(seed, i)`.
    Random {
        /// Number of points (at most `u32::MAX`).
        points: usize,
        /// RNG seed.
        seed: u64,
    },
    /// A Latin hypercube: `points` strata per axis, each hit exactly
    /// once, with in-stratum jitter. Stratum permutations and jitter are
    /// both derived from `seed` alone.
    LatinHypercube {
        /// Number of points and strata per axis (at most `u32::MAX`).
        points: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl SamplerSpec {
    /// Resolve the spec against concrete axes.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError`] when an axis is degenerate, or the point
    /// count is zero or exceeds the supported size.
    pub fn points(&self, axes: &[Axis]) -> Result<PointSet, ExploreError> {
        if axes.is_empty() {
            return Err(ExploreError::NoAxes);
        }
        for axis in axes {
            axis.levels.validate(&axis.name)?;
        }
        let levels: Vec<Levels> = axes.iter().map(|a| a.levels.clone()).collect();
        let len = match *self {
            // Saturating: a product past `u128::MAX` is still too many.
            SamplerSpec::Grid => levels
                .iter()
                .fold(1u128, |n, l| n.saturating_mul(l.count() as u128)),
            SamplerSpec::Random { points, .. } | SamplerSpec::LatinHypercube { points, .. } => {
                points as u128
            }
        };
        if len == 0 {
            return Err(ExploreError::NoPoints);
        }
        if len > u128::from(MAX_POINTS) {
            return Err(ExploreError::TooManyPoints {
                points: len,
                limit: MAX_POINTS,
            });
        }
        let shape = match *self {
            SamplerSpec::Grid => Shape::Grid,
            SamplerSpec::Random { seed, .. } => Shape::Random { seed },
            SamplerSpec::LatinHypercube { seed, .. } => {
                let strata = u32::try_from(len).expect("MAX_POINTS fits in u32");
                // One stratum permutation per axis, shuffled up front on
                // the calling thread (the permutations are shared state;
                // everything per-point stays a pure function of the
                // index).
                let perms = (0..levels.len())
                    .map(|j| {
                        let mut rng = SimRng::stream(seed ^ LHS_PERM_STREAM, j as u64);
                        let mut perm: Vec<u32> = (0..strata).collect();
                        for k in (1..perm.len()).rev() {
                            perm.swap(k, rng.range_usize(0, k + 1));
                        }
                        perm
                    })
                    .collect();
                Shape::Lhs { seed, perms }
            }
        };
        Ok(PointSet {
            levels,
            len: len as usize,
            shape,
        })
    }
}

#[derive(Debug, Clone)]
enum Shape {
    Grid,
    Random { seed: u64 },
    Lhs { seed: u64, perms: Vec<Vec<u32>> },
}

/// A resolved, index-addressable set of sample points (see the
/// [crate docs](crate) for the determinism contract).
#[derive(Debug, Clone)]
pub struct PointSet {
    levels: Vec<Levels>,
    len: usize,
    shape: Shape,
}

impl PointSet {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty (it never is — specs reject zero
    /// points — but clippy insists the pair exists).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of axes per point.
    pub fn dims(&self) -> usize {
        self.levels.len()
    }

    /// The coordinates of point `i`, one value per axis.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn coords(&self, i: usize) -> Vec<f64> {
        assert!(i < self.len, "point {i} out of {}", self.len);
        match &self.shape {
            Shape::Grid => {
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
            Shape::Random { seed } => {
                let mut rng = SimRng::stream(*seed, i as u64);
                self.levels
                    .iter()
                    .map(|levels| levels.at_unit(rng.next_f64()))
                    .collect()
            }
            Shape::Lhs { seed, perms } => {
                let mut rng = SimRng::stream(*seed, i as u64);
                self.levels
                    .iter()
                    .zip(perms)
                    .map(|(levels, perm)| {
                        let stratum = perm[i] as f64;
                        let u = (stratum + rng.next_f64()) / self.len as f64;
                        levels.at_unit(u)
                    })
                    .collect()
            }
        }
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
        assert_eq!(pts.dims(), 2);
        assert_eq!(pts.coords(0), vec![0.0, 10.0]);
        assert_eq!(pts.coords(1), vec![0.0, 20.0]);
        assert_eq!(pts.coords(3), vec![1.0 / 3.0, 10.0]);
        assert_eq!(pts.coords(11), vec![1.0, 30.0]);
    }

    #[test]
    fn random_points_are_reproducible_and_in_bounds() {
        let spec = SamplerSpec::Random {
            points: 64,
            seed: 9,
        };
        let a = spec.points(&axes()).unwrap();
        let b = spec.points(&axes()).unwrap();
        for i in 0..64 {
            let c = a.coords(i);
            assert_eq!(c, b.coords(i));
            assert!((0.0..=1.0).contains(&c[0]));
            assert!([10.0, 20.0, 30.0].contains(&c[1]));
        }
        let other = SamplerSpec::Random {
            points: 64,
            seed: 10,
        }
        .points(&axes())
        .unwrap();
        assert_ne!(a.coords(0), other.coords(0));
    }

    #[test]
    fn latin_hypercube_hits_every_stratum_once() {
        let n = 16;
        let spec = SamplerSpec::LatinHypercube { points: n, seed: 3 };
        let pts = spec
            .points(&[Axis::new("x", Levels::linspace(0.0, 1.0, 2))])
            .unwrap();
        let mut strata = vec![false; n];
        for i in 0..n {
            let x = pts.coords(i)[0];
            let s = ((x * n as f64) as usize).min(n - 1);
            assert!(!strata[s], "stratum {s} hit twice");
            strata[s] = true;
        }
        assert!(strata.iter().all(|&s| s));
        // Reproducible.
        let again = spec
            .points(&[Axis::new("x", Levels::linspace(0.0, 1.0, 2))])
            .unwrap();
        assert_eq!(pts.coords(7), again.coords(7));
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        assert!(matches!(
            SamplerSpec::Grid.points(&[]),
            Err(ExploreError::NoAxes)
        ));
        assert!(matches!(
            SamplerSpec::Random { points: 0, seed: 0 }.points(&axes()),
            Err(ExploreError::NoPoints)
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
        // Past u32::MAX the Latin hypercube's strata would wrap, so no
        // sampler may ask for that many points.
        let points = (1usize << 32) + 3;
        for spec in [
            SamplerSpec::Random { points, seed: 0 },
            SamplerSpec::LatinHypercube { points, seed: 0 },
        ] {
            assert!(matches!(
                spec.points(&axes()),
                Err(ExploreError::TooManyPoints { .. })
            ));
        }
    }
}
