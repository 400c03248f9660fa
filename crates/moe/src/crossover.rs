//! Crossover search: where two sampled cost curves cross.

use std::fmt;

/// A cost-curve pair [`find_crossover`] cannot compare.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CrossoverError {
    /// A sample's `x` is NaN — the grid has no defined order, so any
    /// answer (including "no crossover") would be fabricated.
    NanX {
        /// Which series holds the sample (`"a"` or `"b"`).
        series: &'static str,
        /// Index of the offending sample.
        index: usize,
    },
    /// A sample's `y` is NaN — every sign test involving it is silently
    /// false, which would turn a data error into "no crossover".
    NanY {
        /// Which series holds the sample (`"a"` or `"b"`).
        series: &'static str,
        /// Index of the offending sample.
        index: usize,
    },
}

impl fmt::Display for CrossoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossoverError::NanX { series, index } => {
                write!(f, "series {series} has a NaN x value at index {index}")
            }
            CrossoverError::NanY { series, index } => {
                write!(f, "series {series} has a NaN y value at index {index}")
            }
        }
    }
}

impl std::error::Error for CrossoverError {}

/// Find where two cost curves cross, by linear interpolation between
/// sample points.
///
/// Both series must be sampled on the same ascending `x` grid.
///
/// The contract, pinned by the unit tests:
///
/// * Scanning runs in sample order, so with an ascending grid the
///   **first** crossing (the one at the lowest `x`) is returned; later
///   crossings of a wiggly difference curve are not reported. (The
///   grids are not re-sorted: on an unsorted grid "first" means first
///   in sample order.)
/// * A grid point where the curves touch exactly (`a == b`) is itself
///   the crossing — its `x` is returned un-interpolated, including at
///   the final sample.
/// * Fewer than two samples, series of different lengths, or grids
///   whose `x` values disagree (beyond 1e-9) return `Ok(None)`: there
///   is no comparable pair of curves to cross.
/// * NaN `x` or `y` values are a [`CrossoverError`], not a silent
///   `None` — NaN comparisons are always false, which would otherwise
///   disguise corrupt data as "one curve dominates everywhere".
///
/// # Errors
///
/// Returns [`CrossoverError`] when either series contains a NaN
/// coordinate.
///
/// # Examples
///
/// ```
/// use ipass_moe::find_crossover;
///
/// // a: flat 10; b: 4 + 2x — b overtakes a at x = 3.
/// let a: Vec<(f64, f64)> = (0..=5).map(|i| (i as f64, 10.0)).collect();
/// let b: Vec<(f64, f64)> = (0..=5).map(|i| (i as f64, 4.0 + 2.0 * i as f64)).collect();
/// let x = find_crossover(&a, &b)?.unwrap();
/// assert!((x - 3.0).abs() < 1e-9);
/// # Ok::<(), ipass_moe::CrossoverError>(())
/// ```
pub fn find_crossover(a: &[(f64, f64)], b: &[(f64, f64)]) -> Result<Option<f64>, CrossoverError> {
    for (series, samples) in [("a", a), ("b", b)] {
        for (index, &(x, y)) in samples.iter().enumerate() {
            if x.is_nan() {
                return Err(CrossoverError::NanX { series, index });
            }
            if y.is_nan() {
                return Err(CrossoverError::NanY { series, index });
            }
        }
    }
    if a.len() != b.len() || a.len() < 2 {
        return Ok(None);
    }
    if a.iter()
        .zip(b)
        .any(|(&(xa, _), &(xb, _))| (xa - xb).abs() > 1e-9)
    {
        return Ok(None);
    }
    let d = |i: usize| a[i].1 - b[i].1;
    for i in 0..a.len() - 1 {
        let (x0, x1) = (a[i].0, a[i + 1].0);
        let (d0, d1) = (d(i), d(i + 1));
        if d0 == 0.0 {
            return Ok(Some(x0));
        }
        if d0 * d1 < 0.0 {
            // Linear interpolation to the root of d(x).
            return Ok(Some(x0 + (x1 - x0) * d0 / (d0 - d1)));
        }
    }
    if d(a.len() - 1) == 0.0 {
        return Ok(Some(a[a.len() - 1].0));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_exact_grid_point() {
        let a = [(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)];
        let b = [(0.0, 7.0), (1.0, 5.0), (2.0, 3.0)];
        // d = a−b: 0 at x=1 reached from d0=−2 ... first window has d0=-2,d1=0:
        // no sign change strictly; second window d0=0 → returns 1.0.
        assert_eq!(find_crossover(&a, &b), Ok(Some(1.0)));
    }

    #[test]
    fn crossover_touch_at_final_sample_counts() {
        let a = [(0.0, 5.0), (1.0, 4.0), (2.0, 3.0)];
        let b = [(0.0, 7.0), (1.0, 5.0), (2.0, 3.0)];
        assert_eq!(find_crossover(&a, &b), Ok(Some(2.0)));
    }

    #[test]
    fn crossover_none_when_dominated() {
        let a = [(0.0, 1.0), (1.0, 1.0)];
        let b = [(0.0, 2.0), (1.0, 3.0)];
        assert_eq!(find_crossover(&a, &b), Ok(None));
    }

    #[test]
    fn crossover_rejects_mismatched_grids() {
        let a = [(0.0, 1.0), (1.0, 1.0)];
        let b = [(0.0, 2.0), (1.5, 0.0)];
        assert_eq!(find_crossover(&a, &b), Ok(None));
        // Degenerate series: a single shared point, or nothing at all,
        // cannot bracket a crossing.
        assert_eq!(find_crossover(&a[..1], &b[..1]), Ok(None));
        assert_eq!(find_crossover(&a[..0], &b[..0]), Ok(None));
        // Different lengths disagree as grids even when one is a prefix.
        assert_eq!(find_crossover(&a, &b[..1]), Ok(None));
    }

    #[test]
    fn crossover_interpolates() {
        let a = [(0.0, 0.0), (10.0, 10.0)];
        let b = [(0.0, 5.0), (10.0, 5.0)];
        let x = find_crossover(&a, &b).unwrap().unwrap();
        assert!((x - 5.0).abs() < 1e-9);
    }

    #[test]
    fn crossover_returns_the_first_of_multiple_crossings() {
        // d = a−b changes sign at x = 1.5 and again at x = 3.5; the
        // first (lowest-x) crossing wins.
        let a = [(0.0, 0.0), (1.0, 0.0), (2.0, 2.0), (3.0, 2.0), (4.0, 0.0)];
        let b = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)];
        let x = find_crossover(&a, &b).unwrap().unwrap();
        assert!((x - 1.5).abs() < 1e-9);
    }

    #[test]
    fn crossover_on_unsorted_grids_scans_in_sample_order() {
        // The grids are taken as given, not re-sorted: "first crossing"
        // means first in sample order, here the 5→3 vs 4→4 window.
        let a = [(2.0, 5.0), (0.0, 3.0), (1.0, 9.0)];
        let b = [(2.0, 4.0), (0.0, 4.0), (1.0, 4.0)];
        let x = find_crossover(&a, &b).unwrap().unwrap();
        assert!((x - 1.0).abs() < 1e-9, "x = {x}");
    }

    #[test]
    fn crossover_rejects_nan_coordinates_with_typed_errors() {
        let clean = [(0.0, 1.0), (1.0, 2.0)];
        let nan_x = [(0.0, 1.0), (f64::NAN, 2.0)];
        let nan_y = [(0.0, f64::NAN), (1.0, 2.0)];
        assert_eq!(
            find_crossover(&nan_x, &clean),
            Err(CrossoverError::NanX {
                series: "a",
                index: 1
            })
        );
        assert_eq!(
            find_crossover(&clean, &nan_y),
            Err(CrossoverError::NanY {
                series: "b",
                index: 0
            })
        );
        let message = find_crossover(&nan_x, &clean).unwrap_err().to_string();
        assert!(message.contains("NaN x") && message.contains("index 1"));
    }
}
