//! SMD chip component catalog: body vs footprint areas (Fig. 1).
//!
//! The paper's Fig. 1 (after Pohjonen & Kuisma [6]) shows that while SMD
//! bodies keep shrinking, the mounting/soldering overhead ("footprint")
//! barely does — the motivation for integrating passives at all. Table 1
//! anchors two of the footprints: 0603 → 3.75 mm², 0805 → 4.5 mm².

use ipass_units::Area;
use std::fmt;

/// Imperial SMD case sizes, largest to smallest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SmdSize {
    /// 2512: 6.30 × 3.20 mm body.
    I2512,
    /// 1206: 3.20 × 1.60 mm body.
    I1206,
    /// 0805: 2.00 × 1.25 mm body.
    I0805,
    /// 0603: 1.60 × 0.80 mm body.
    I0603,
    /// 0402: 1.00 × 0.50 mm body.
    I0402,
    /// 0201: 0.60 × 0.30 mm body.
    I0201,
}

impl SmdSize {
    /// All sizes, largest first (the x-axis of Fig. 1 extended).
    pub const ALL: [SmdSize; 6] = [
        SmdSize::I2512,
        SmdSize::I1206,
        SmdSize::I0805,
        SmdSize::I0603,
        SmdSize::I0402,
        SmdSize::I0201,
    ];

    /// Body length × width in mm.
    pub fn body_mm(self) -> (f64, f64) {
        match self {
            SmdSize::I2512 => (6.30, 3.20),
            SmdSize::I1206 => (3.20, 1.60),
            SmdSize::I0805 => (2.00, 1.25),
            SmdSize::I0603 => (1.60, 0.80),
            SmdSize::I0402 => (1.00, 0.50),
            SmdSize::I0201 => (0.60, 0.30),
        }
    }

    /// Pure component (body) area.
    pub fn body_area(self) -> Area {
        let (l, w) = self.body_mm();
        Area::rect_mm(l, w)
    }

    /// Mounted footprint area: body + solder lands + placement courtyard.
    ///
    /// The 0603/0805 values are the paper's Table 1 figures; the others
    /// follow the same pad-and-courtyard model (Fig. 1's point is that
    /// this overhead saturates around ~2.2 mm²).
    pub fn footprint_area(self) -> Area {
        Area::from_mm2(match self {
            SmdSize::I2512 => 25.0,
            SmdSize::I1206 => 7.60,
            SmdSize::I0805 => 4.50,
            SmdSize::I0603 => 3.75,
            SmdSize::I0402 => 2.70,
            SmdSize::I0201 => 2.20,
        })
    }

    /// The industry case code (e.g. `"0603"`).
    pub fn code(self) -> &'static str {
        match self {
            SmdSize::I2512 => "2512",
            SmdSize::I1206 => "1206",
            SmdSize::I0805 => "0805",
            SmdSize::I0603 => "0603",
            SmdSize::I0402 => "0402",
            SmdSize::I0201 => "0201",
        }
    }
}

impl fmt::Display for SmdSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// The Fig. 1 data series: `(size, body_area, footprint_area)` for every
/// catalog size, largest first.
///
/// # Examples
///
/// ```
/// use ipass_passives::smd_area_series;
///
/// let series = smd_area_series();
/// // Body area shrinks monotonically…
/// assert!(series.windows(2).all(|w| w[1].1 < w[0].1));
/// // …and so does the footprint, but much more slowly at the small end.
/// let (_, body_big, foot_big) = series[2];   // 0805
/// let (_, body_small, foot_small) = series[5]; // 0201
/// assert!(body_big.mm2() / body_small.mm2() > 10.0);
/// assert!(foot_big.mm2() / foot_small.mm2() < 2.5);
/// ```
pub fn smd_area_series() -> Vec<(SmdSize, Area, Area)> {
    SmdSize::ALL
        .iter()
        .map(|&s| (s, s.body_area(), s.footprint_area()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_anchors() {
        assert!((SmdSize::I0603.footprint_area().mm2() - 3.75).abs() < 1e-12);
        assert!((SmdSize::I0805.footprint_area().mm2() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn body_areas_match_dimensions() {
        assert!((SmdSize::I0603.body_area().mm2() - 1.28).abs() < 1e-12);
        assert!((SmdSize::I0201.body_area().mm2() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn footprint_always_exceeds_body() {
        for s in SmdSize::ALL {
            assert!(
                s.footprint_area().mm2() > s.body_area().mm2(),
                "{s}: footprint must exceed body"
            );
        }
    }

    #[test]
    fn overhead_saturates_at_small_sizes() {
        // Fig. 1's argument: overhead is roughly constant ≈ 2 mm² for
        // small parts, so footprint stops shrinking.
        let overhead = |s: SmdSize| s.footprint_area().mm2() - s.body_area().mm2();
        let o_0402 = overhead(SmdSize::I0402);
        let o_0201 = overhead(SmdSize::I0201);
        assert!((o_0402 - o_0201).abs() < 0.3);
        assert!(o_0201 > 1.5);
    }

    #[test]
    fn codes_roundtrip() {
        for s in SmdSize::ALL {
            let found = SmdSize::ALL.into_iter().find(|t| t.code() == s.code());
            assert_eq!(found, Some(s));
            assert_eq!(s.to_string(), s.code());
        }
    }

    #[test]
    fn series_is_sorted_largest_first() {
        let series = smd_area_series();
        assert_eq!(series.len(), 6);
        for w in series.windows(2) {
            assert!(w[0].1.mm2() > w[1].1.mm2());
            assert!(w[0].2.mm2() > w[1].2.mm2());
        }
    }
}
