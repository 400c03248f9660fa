//! IEC 60063 preferred number series (E3…E96) for component values.
//!
//! Real BOMs use preferred values; [`ESeries::snap`] rounds a nominal
//! value to the nearest one of a series.
//!
//! # Examples
//!
//! ```
//! use ipass_passives::eseries::ESeries;
//!
//! // 4.9 kΩ snaps to 4.7 kΩ in E12:
//! let snapped = ESeries::E12.snap(4900.0);
//! assert!((snapped - 4700.0).abs() < 1e-9);
//!
//! // E96 is much finer:
//! let fine = ESeries::E96.snap(4900.0);
//! assert!((fine - 4870.0).abs() / 4870.0 < 1e-6);
//! ```

/// A preferred-number series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ESeries {
    /// 3 values per decade (±40 %).
    E3,
    /// 6 values per decade (±20 %).
    E6,
    /// 12 values per decade (±10 %).
    E12,
    /// 24 values per decade (±5 %).
    E24,
    /// 48 values per decade (±2 %).
    E48,
    /// 96 values per decade (±1 %).
    E96,
}

/// Historic rounded mantissas for E3–E24 (IEC 60063 deviates from the
/// geometric progression for these series).
const E24_MANTISSAS: [f64; 24] = [
    1.0, 1.1, 1.2, 1.3, 1.5, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7, 3.0, 3.3, 3.6, 3.9, 4.3, 4.7, 5.1, 5.6,
    6.2, 6.8, 7.5, 8.2, 9.1,
];

impl ESeries {
    /// Number of values per decade.
    pub fn steps(self) -> usize {
        match self {
            ESeries::E3 => 3,
            ESeries::E6 => 6,
            ESeries::E12 => 12,
            ESeries::E24 => 24,
            ESeries::E48 => 48,
            ESeries::E96 => 96,
        }
    }

    /// The mantissas (values in `[1, 10)`) of one decade.
    pub fn mantissas(self) -> Vec<f64> {
        let n = self.steps();
        match self {
            ESeries::E3 | ESeries::E6 | ESeries::E12 | ESeries::E24 => {
                let stride = 24 / n;
                E24_MANTISSAS.iter().step_by(stride).copied().collect()
            }
            ESeries::E48 | ESeries::E96 => (0..n)
                .map(|i| {
                    let v = 10f64.powf(i as f64 / n as f64);
                    // IEC rounds E48/E96 to three significant digits.
                    (v * 100.0).round() / 100.0
                })
                .collect(),
        }
    }

    /// Snap `value` to the nearest preferred value (geometric distance).
    ///
    /// # Panics
    ///
    /// Panics when `value` is not a positive finite number.
    pub fn snap(self, value: f64) -> f64 {
        assert!(
            value.is_finite() && value > 0.0,
            "can only snap positive values, got {value}"
        );
        let exponent = value.log10().floor();
        let decade = 10f64.powf(exponent);
        let mantissa = value / decade;
        let mut best = f64::NAN;
        let mut best_err = f64::INFINITY;
        // Consider the neighboring decade edges too.
        for (m, scale) in self
            .mantissas()
            .iter()
            .map(|&m| (m, 1.0))
            .chain(std::iter::once((self.mantissas()[0], 10.0)))
            .chain(std::iter::once((
                *self.mantissas().last().expect("non-empty series"),
                0.1,
            )))
        {
            let candidate = m * scale;
            let err = (candidate.ln() - mantissa.ln()).abs();
            if err < best_err {
                best_err = err;
                best = candidate;
            }
        }
        best * decade
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decade_sizes() {
        for s in [
            ESeries::E3,
            ESeries::E6,
            ESeries::E12,
            ESeries::E24,
            ESeries::E48,
            ESeries::E96,
        ] {
            assert_eq!(s.mantissas().len(), s.steps());
        }
    }

    #[test]
    fn e12_contains_classics() {
        let m = ESeries::E12.mantissas();
        for v in [1.0, 2.2, 3.3, 4.7, 6.8] {
            assert!(m.iter().any(|&x| (x - v).abs() < 1e-9), "missing {v}");
        }
    }

    #[test]
    fn snapping_known_values() {
        assert!((ESeries::E12.snap(4900.0) - 4700.0).abs() < 1e-9);
        assert!((ESeries::E12.snap(1.04) - 1.0).abs() < 1e-9);
        assert!((ESeries::E24.snap(52.0) - 51.0).abs() < 1e-9);
        // Snap across decade boundary: 0.97 → 1.0.
        assert!((ESeries::E12.snap(0.97) - 1.0).abs() < 1e-9);
        // 9.6 in E12: nearest is 10 (next decade), not 8.2.
        assert!((ESeries::E12.snap(9.6) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn e96_is_three_digit() {
        for m in ESeries::E96.mantissas() {
            let scaled = m * 100.0;
            assert!((scaled - scaled.round()).abs() < 1e-9, "{m}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn snap_rejects_zero() {
        let _ = ESeries::E12.snap(0.0);
    }

    proptest! {
        #[test]
        fn snap_error_is_bounded(value in 1e-12f64..1e12, series_idx in 0usize..6) {
            let series = [ESeries::E3, ESeries::E6, ESeries::E12, ESeries::E24, ESeries::E48, ESeries::E96][series_idx];
            let snapped = series.snap(value);
            let rel = (snapped / value).ln().abs();
            // Half a geometric step plus slack for the rounded mantissas
            // (E24's 1.3 → 1.5 gap is the widest irregularity: 1.49×).
            let bound = (10f64.powf(0.5 / series.steps() as f64)).ln() * 1.6;
            prop_assert!(rel <= bound, "{} -> {} (rel {})", value, snapped, rel);
        }

        #[test]
        fn snap_is_idempotent(value in 1e-9f64..1e9) {
            let s = ESeries::E24.snap(value);
            let s2 = ESeries::E24.snap(s);
            prop_assert!((s - s2).abs() <= s.abs() * 1e-12);
        }
    }
}
