//! A shelf (level-oriented) rectangle packer.
//!
//! The paper performs only a "trivial placement" — Σarea times an
//! overhead factor. The packer provides an independent cross-check: pack
//! the actual component outlines into a strip of the width predicted by
//! the [`SubstrateRule`](crate::SubstrateRule) and verify that they fit
//! with the claimed overhead. It is also used by the placement ablation
//! bench.

use ipass_units::Area;
use std::error::Error;
use std::fmt;

/// An axis-aligned rectangle to place, in mm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Width in mm.
    pub w: f64,
    /// Height in mm.
    pub h: f64,
}

impl Rect {
    /// Create a rectangle.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-finite dimensions.
    pub fn new(w: f64, h: f64) -> Rect {
        assert!(
            w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite(),
            "rectangle sides must be positive, got {w} × {h}"
        );
        Rect { w, h }
    }

    /// The rectangle's area.
    pub fn area(&self) -> Area {
        Area::rect_mm(self.w, self.h)
    }

    /// The rectangle rotated by 90°.
    pub fn rotated(&self) -> Rect {
        Rect {
            w: self.h,
            h: self.w,
        }
    }
}

/// A placed rectangle: position of the lower-left corner plus final
/// orientation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index into the input rectangle list.
    pub index: usize,
    /// X of the lower-left corner (mm).
    pub x: f64,
    /// Y of the lower-left corner (mm).
    pub y: f64,
    /// Final size after optional rotation.
    pub rect: Rect,
    /// Whether the rectangle was rotated by 90°.
    pub rotated: bool,
}

impl Placement {
    /// Whether two placements overlap (touching edges is allowed).
    pub fn overlaps(&self, other: &Placement) -> bool {
        let eps = 1e-9;
        !(self.x + self.rect.w <= other.x + eps
            || other.x + other.rect.w <= self.x + eps
            || self.y + self.rect.h <= other.y + eps
            || other.y + other.rect.h <= self.y + eps)
    }
}

/// Error from a packing attempt.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PackError {
    /// A rectangle is wider than the strip even when rotated.
    TooWide {
        /// Index of the offending rectangle.
        index: usize,
        /// Its smaller side (mm).
        min_side: f64,
        /// The strip width (mm).
        strip_width: f64,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::TooWide {
                index,
                min_side,
                strip_width,
            } => write!(
                f,
                "rectangle #{index} (min side {min_side} mm) exceeds strip width {strip_width} mm"
            ),
        }
    }
}

impl Error for PackError {}

/// A next-fit decreasing-height shelf packer for a fixed strip width.
///
/// # Examples
///
/// ```
/// use ipass_layout::{Rect, ShelfPacker};
///
/// let parts = vec![Rect::new(2.0, 1.25); 8]; // eight 0805 bodies
/// let packing = ShelfPacker::new(8.0).pack(&parts)?; // 4 per shelf
/// assert_eq!(packing.placements().len(), 8);
/// // Shelf packing of equal rectangles is essentially perfect:
/// assert!(packing.utilization() > 0.95);
/// # Ok::<(), ipass_layout::PackError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShelfPacker {
    strip_width: f64,
}

impl ShelfPacker {
    /// Create a packer for a strip of the given width (mm), with
    /// rotation allowed.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive width.
    pub fn new(strip_width: f64) -> ShelfPacker {
        assert!(
            strip_width > 0.0 && strip_width.is_finite(),
            "strip width must be positive, got {strip_width}"
        );
        ShelfPacker { strip_width }
    }

    /// Pack rectangles onto shelves, sorted by decreasing height.
    ///
    /// # Errors
    ///
    /// Returns [`PackError::TooWide`] when a rectangle cannot fit the
    /// strip in either orientation.
    pub fn pack(&self, rects: &[Rect]) -> Result<Packing, PackError> {
        // Normalize: lay every rectangle flat (wider than tall), then
        // sort by decreasing height.
        let mut items: Vec<(usize, Rect, bool)> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if r.h > r.w {
                    (i, r.rotated(), true)
                } else {
                    (i, *r, false)
                }
            })
            .collect();
        for (i, r, _) in &items {
            if r.w > self.strip_width && r.h > self.strip_width {
                return Err(PackError::TooWide {
                    index: *i,
                    min_side: r.w.min(r.h),
                    strip_width: self.strip_width,
                });
            }
        }
        items.sort_by(|a, b| {
            b.1.h
                .partial_cmp(&a.1.h)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut placements = Vec::with_capacity(items.len());
        let mut shelf_y = 0.0f64;
        let mut shelf_height = 0.0f64;
        let mut cursor_x = 0.0f64;
        for (index, mut rect, mut rotated) in items {
            if rect.w > self.strip_width {
                rect = rect.rotated();
                rotated = !rotated;
            }
            if cursor_x + rect.w > self.strip_width + 1e-12 {
                // Open a new shelf.
                shelf_y += shelf_height;
                shelf_height = 0.0;
                cursor_x = 0.0;
            }
            placements.push(Placement {
                index,
                x: cursor_x,
                y: shelf_y,
                rect,
                rotated,
            });
            cursor_x += rect.w;
            shelf_height = shelf_height.max(rect.h);
        }
        let height = shelf_y + shelf_height;
        Ok(Packing {
            strip_width: self.strip_width,
            height,
            placements,
        })
    }
}

/// The result of a packing run.
#[derive(Debug, Clone, PartialEq)]
pub struct Packing {
    strip_width: f64,
    height: f64,
    placements: Vec<Placement>,
}

impl Packing {
    /// Assemble a packing from raw parts (used by the packers).
    pub(crate) fn from_parts(strip_width: f64, height: f64, placements: Vec<Placement>) -> Packing {
        Packing {
            strip_width,
            height,
            placements,
        }
    }

    /// The placements, in packing order.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Height of the used strip (mm).
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The bounding area actually used.
    pub fn bounding_area(&self) -> Area {
        Area::rect_mm(self.strip_width, self.height)
    }

    /// Component area over bounding area (0–1; higher is denser).
    pub fn utilization(&self) -> f64 {
        if self.height == 0.0 {
            return 0.0;
        }
        let used: f64 = self.placements.iter().map(|p| p.rect.w * p.rect.h).sum();
        used / (self.strip_width * self.height)
    }

    /// The packing overhead factor (bounding / component area; ≥ 1) —
    /// directly comparable to
    /// [`SubstrateRule::overhead`](crate::SubstrateRule::overhead).
    pub fn overhead(&self) -> f64 {
        let u = self.utilization();
        if u == 0.0 {
            f64::INFINITY
        } else {
            1.0 / u
        }
    }

    /// Verify the structural invariants: no overlaps, everything inside
    /// the strip. Mostly useful in tests and benches.
    pub fn validate(&self) -> bool {
        for (i, a) in self.placements.iter().enumerate() {
            if a.x < -1e-9
                || a.y < -1e-9
                || a.x + a.rect.w > self.strip_width + 1e-9
                || a.y + a.rect.h > self.height + 1e-9
            {
                return false;
            }
            for b in &self.placements[i + 1..] {
                if a.overlaps(b) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipass_sim::SimRng;
    use proptest::prelude::*;

    #[test]
    fn packs_uniform_parts_tightly() {
        let parts = vec![Rect::new(2.0, 1.0); 10];
        let packing = ShelfPacker::new(10.0).pack(&parts).unwrap();
        assert!(packing.validate());
        assert_eq!(packing.placements().len(), 10);
        assert!((packing.height() - 2.0).abs() < 1e-9);
        assert!((packing.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_saves_space() {
        // Tall skinny parts must be laid flat to fit a low strip.
        let parts = vec![Rect::new(1.0, 8.0); 4];
        let with_rot = ShelfPacker::new(8.0).pack(&parts).unwrap();
        assert!(with_rot.validate());
        assert!(with_rot.placements().iter().all(|p| p.rotated));
        // Laid flat, the four parts stack one unit high each instead of
        // standing eight high.
        assert!((with_rot.height() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn too_wide_is_an_error() {
        let err = ShelfPacker::new(5.0)
            .pack(&[Rect::new(6.0, 6.0)])
            .unwrap_err();
        assert!(matches!(err, PackError::TooWide { index: 0, .. }));
        assert!(err.to_string().contains("strip width"));
    }

    #[test]
    fn rotation_rescues_wide_parts() {
        let packing = ShelfPacker::new(5.0).pack(&[Rect::new(6.0, 1.0)]).unwrap();
        assert!(packing.validate());
        assert!(packing.placements()[0].rotated);
    }

    #[test]
    fn empty_input_is_empty_packing() {
        let packing = ShelfPacker::new(5.0).pack(&[]).unwrap();
        assert_eq!(packing.placements().len(), 0);
        assert_eq!(packing.height(), 0.0);
        assert_eq!(packing.utilization(), 0.0);
        assert!(packing.overhead().is_infinite());
        assert!(packing.validate());
    }

    #[test]
    fn mcm_overhead_claim_is_achievable() {
        // The paper's 1.1 factor: pack a realistic GPS-like component mix
        // into the strip the MCM rule would allocate and check the shelf
        // packer achieves ≤ ~1.35 overhead (shelf packing is not optimal,
        // so the claimed 1.1 with hand layout is plausible).
        let mut parts = vec![
            Rect::new(5.3, 5.3), // RF die (WB)
            Rect::new(9.4, 9.4), // DSP die (WB)
        ];
        parts.extend(std::iter::repeat_n(Rect::new(1.6 + 0.95, 0.8 + 0.95), 100)); // 0603 footprints
        parts.extend(std::iter::repeat_n(Rect::new(2.0 + 1.0, 1.25 + 1.0), 8)); // 0805 footprints
        parts.extend(std::iter::repeat_n(Rect::new(5.5, 5.0), 4)); // filter modules
        let total: f64 = parts.iter().map(|r| r.area().mm2()).sum();
        let strip = (1.1 * total).sqrt();
        let packing = ShelfPacker::new(strip).pack(&parts).unwrap();
        assert!(packing.validate());
        assert!(
            packing.overhead() < 1.35,
            "shelf overhead {:.3} should approach the trivial-placement claim",
            packing.overhead()
        );
    }

    #[test]
    fn overlap_detection_works() {
        let a = Placement {
            index: 0,
            x: 0.0,
            y: 0.0,
            rect: Rect::new(2.0, 2.0),
            rotated: false,
        };
        let mut b = a;
        b.index = 1;
        b.x = 1.0;
        assert!(a.overlaps(&b));
        b.x = 2.0; // touching is fine
        assert!(!a.overlaps(&b));
        b.x = 0.0;
        b.y = 2.0;
        assert!(!a.overlaps(&b));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rect_rejected() {
        let _ = Rect::new(0.0, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn packing_never_overlaps(seed in 0u64..500, n in 1usize..60, strip in 5.0f64..50.0) {
            let mut rng = SimRng::stream(seed, 0);
            let rects: Vec<Rect> = (0..n)
                .map(|_| Rect::new(rng.range_f64(0.2, 4.0), rng.range_f64(0.2, 4.0)))
                .collect();
            let packing = ShelfPacker::new(strip).pack(&rects).unwrap();
            prop_assert!(packing.validate());
            prop_assert_eq!(packing.placements().len(), n);
            // Conservation: bounding area ≥ component area.
            let total: f64 = rects.iter().map(|r| r.area().mm2()).sum();
            prop_assert!(packing.bounding_area().mm2() >= total - 1e-6);
        }
    }
}
