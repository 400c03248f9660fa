//! Forward-mode dual numbers over the analytic cohort walk.
//!
//! The analytic engine is a straight-line walk over precomputed ops
//! (see [`crate::compile`]); genericizing that walk over a scalar type
//! makes it an automatic-differentiation substrate for free. This
//! module provides the two scalars:
//!
//! * `f64` — the production path, bit-identical to the pre-generic
//!   engine (the seed lookup compiles away entirely), and
//! * [`Dual<K>`] — a value plus a K-wide tangent vector. Every
//!   arithmetic op computes its value component with the *identical*
//!   `f64` operation the plain walk performs and carries the K
//!   directional derivatives alongside, so one dual walk returns the
//!   exact primal result **and** exact ∂output/∂direction for K
//!   tangent directions at once.
//!
//! Tangent directions are seeded through the compiled patch-slot table:
//! a [`DualDirection`] is a weighted combination of slot parameters
//! (the same `(name, kind)` vocabulary [`FlowPatch`] setters use, with
//! the same per-input-unit semantics), and
//! [`CompiledFlow::analyze_duals`] turns each one into per-op tangent
//! seeds on the folded parameters. Branch decisions inside the walk
//! compare only the primal component, so the dual walk's control flow —
//! and therefore its primal arithmetic sequence — matches the plain
//! `f64` walk exactly.
//!
//! [`FlowPatch`]: crate::FlowPatch
//! [`CompiledFlow::analyze_duals`]: crate::CompiledFlow::analyze_duals

use crate::compile::SlotKind;
use crate::cost::CostCategory;
use crate::report::CostReport;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// The scalar the cohort walk is generic over: `f64` for plain
/// evaluation, [`Dual<K>`] for forward-mode differentiation.
///
/// Implementations must compute the primal component of every
/// operation with the exact `f64` instruction sequence a plain `f64`
/// evaluation would use — the dual walk's value output is required to
/// be bit-identical to the plain walk's.
pub(crate) trait Scalar:
    Copy
    + core::fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Lift a constant: value `v`, zero tangent.
    fn from_f64(v: f64) -> Self;
    /// The primal (value) component — all branch guards compare this.
    fn val(self) -> f64;
    /// Multiply by a constant (`k` carries no tangent).
    fn scale(self, k: f64) -> Self;
    /// Raise to a constant power (`q` carries no tangent).
    fn powf(self, q: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline(always)]
    fn from_f64(v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn val(self) -> f64 {
        self
    }

    #[inline(always)]
    fn scale(self, k: f64) -> f64 {
        self * k
    }

    #[inline(always)]
    fn powf(self, q: f64) -> f64 {
        f64::powf(self, q)
    }
}

/// A forward-mode dual number: a value plus a K-wide tangent vector.
///
/// `eps[k]` is the derivative of `val` with respect to tangent
/// direction `k`. The value component of every operation is computed
/// with the identical `f64` expression the plain walk uses (`a.val ⊕
/// b.val`), never an algebraically-rearranged form, so primal outputs
/// stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Dual<const K: usize> {
    pub(crate) val: f64,
    pub(crate) eps: [f64; K],
}

impl<const K: usize> Add for Dual<K> {
    type Output = Dual<K>;

    #[inline]
    fn add(self, rhs: Dual<K>) -> Dual<K> {
        let mut eps = self.eps;
        for (e, r) in eps.iter_mut().zip(rhs.eps.iter()) {
            *e += *r;
        }
        Dual {
            val: self.val + rhs.val,
            eps,
        }
    }
}

impl<const K: usize> Sub for Dual<K> {
    type Output = Dual<K>;

    #[inline]
    fn sub(self, rhs: Dual<K>) -> Dual<K> {
        let mut eps = self.eps;
        for (e, r) in eps.iter_mut().zip(rhs.eps.iter()) {
            *e -= *r;
        }
        Dual {
            val: self.val - rhs.val,
            eps,
        }
    }
}

impl<const K: usize> Mul for Dual<K> {
    type Output = Dual<K>;

    #[inline]
    fn mul(self, rhs: Dual<K>) -> Dual<K> {
        // Product rule, fused: the tangent lanes carry no bit-identity
        // contract (only `val` does), so let the FMA units have them.
        let mut eps = [0.0; K];
        for ((e, a), b) in eps.iter_mut().zip(self.eps.iter()).zip(rhs.eps.iter()) {
            *e = a.mul_add(rhs.val, self.val * b);
        }
        Dual {
            val: self.val * rhs.val,
            eps,
        }
    }
}

impl<const K: usize> Div for Dual<K> {
    type Output = Dual<K>;

    #[inline]
    fn div(self, rhs: Dual<K>) -> Dual<K> {
        // Quotient rule; the value stays a plain division (not a
        // reciprocal-multiply) for bit-identity with the f64 walk. The
        // tangent lanes carry no such contract, so they share one
        // reciprocal instead of paying K hardware divisions.
        let inv = 1.0 / (rhs.val * rhs.val);
        let mut eps = [0.0; K];
        for ((e, a), b) in eps.iter_mut().zip(self.eps.iter()).zip(rhs.eps.iter()) {
            *e = a.mul_add(rhs.val, -(self.val * b)) * inv;
        }
        Dual {
            val: self.val / rhs.val,
            eps,
        }
    }
}

impl<const K: usize> AddAssign for Dual<K> {
    #[inline]
    fn add_assign(&mut self, rhs: Dual<K>) {
        *self = *self + rhs;
    }
}

impl<const K: usize> SubAssign for Dual<K> {
    #[inline]
    fn sub_assign(&mut self, rhs: Dual<K>) {
        *self = *self - rhs;
    }
}

impl<const K: usize> Scalar for Dual<K> {
    const ZERO: Dual<K> = Dual {
        val: 0.0,
        eps: [0.0; K],
    };
    const ONE: Dual<K> = Dual {
        val: 1.0,
        eps: [0.0; K],
    };

    #[inline]
    fn from_f64(v: f64) -> Dual<K> {
        Dual {
            val: v,
            eps: [0.0; K],
        }
    }

    #[inline]
    fn val(self) -> f64 {
        self.val
    }

    #[inline]
    fn scale(self, k: f64) -> Dual<K> {
        let mut eps = self.eps;
        for e in eps.iter_mut() {
            *e *= k;
        }
        Dual {
            val: self.val * k,
            eps,
        }
    }

    #[inline]
    fn powf(self, q: f64) -> Dual<K> {
        // d(x^q)/dx = q·x^(q−1); the value is the identical powf call
        // the plain walk makes.
        let d = q * self.val.powf(q - 1.0);
        let mut eps = self.eps;
        for e in eps.iter_mut() {
            *e *= d;
        }
        Dual {
            val: self.val.powf(q),
            eps,
        }
    }
}

/// How the generic walk lifts each op parameter into the scalar:
/// either as a constant (`f64` path) or as a seeded dual carrying that
/// parameter's tangent weights.
pub(crate) trait TangentSeeds<S: Scalar> {
    /// Lift op `op`'s cost parameter.
    fn cost(&self, op: usize, value: f64) -> S;
    /// Lift op `op`'s folded success probability.
    fn p_good(&self, op: usize, value: f64) -> S;
    /// Lift op `op`'s fault coverage.
    fn coverage(&self, op: usize, value: f64) -> S;
}

/// The production `f64` path: every parameter is a constant and the op
/// index is unused, so the lookup compiles away entirely.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NoSeeds;

impl TangentSeeds<f64> for NoSeeds {
    #[inline(always)]
    fn cost(&self, _op: usize, value: f64) -> f64 {
        value
    }

    #[inline(always)]
    fn p_good(&self, _op: usize, value: f64) -> f64 {
        value
    }

    #[inline(always)]
    fn coverage(&self, _op: usize, value: f64) -> f64 {
        value
    }
}

/// Per-op tangent weights for a K-direction dual pass, indexed by
/// absolute op position — compilation's patch-slot table doubling as
/// the seeding map.
///
/// Sparse by row: a K=12 tornado seeds a dozen of the program's ops,
/// and a dense `n_ops × K` triple of planes costs more to zero per
/// evaluation than the seeding it carries. Unseeded ops hit the
/// `u32::MAX` sentinel and lift with all-zero tangents.
#[derive(Debug, Clone)]
pub(crate) struct SeedTable<const K: usize> {
    /// Row index per op; `u32::MAX` means no parameter of that op is
    /// seeded.
    index: Vec<u32>,
    /// `[cost, p_good, coverage]` lane triples for the seeded ops.
    rows: Vec<[[f64; K]; 3]>,
}

impl<const K: usize> SeedTable<K> {
    pub(crate) fn new(n_ops: usize) -> SeedTable<K> {
        SeedTable {
            index: vec![u32::MAX; n_ops],
            rows: Vec::new(),
        }
    }

    /// Accumulate `weight` into lane `lane` of op `op`'s `kind`
    /// parameter (directions may touch the same slot more than once).
    pub(crate) fn seed(&mut self, op: usize, kind: SlotKind, lane: usize, weight: f64) {
        let row = match self.index[op] {
            u32::MAX => {
                self.index[op] = self.rows.len() as u32;
                self.rows.push([[0.0; K]; 3]);
                self.rows.last_mut().expect("row just pushed")
            }
            i => &mut self.rows[i as usize],
        };
        let plane = match kind {
            SlotKind::Cost => 0,
            SlotKind::Yield => 1,
            SlotKind::Coverage => 2,
        };
        row[plane][lane] += weight;
    }

    #[inline]
    fn lift(&self, op: usize, plane: usize, value: f64) -> Dual<K> {
        let eps = match self.index[op] {
            u32::MAX => [0.0; K],
            i => self.rows[i as usize][plane],
        };
        Dual { val: value, eps }
    }
}

impl<const K: usize> TangentSeeds<Dual<K>> for SeedTable<K> {
    #[inline]
    fn cost(&self, op: usize, value: f64) -> Dual<K> {
        self.lift(op, 0, value)
    }

    #[inline]
    fn p_good(&self, op: usize, value: f64) -> Dual<K> {
        self.lift(op, 1, value)
    }

    #[inline]
    fn coverage(&self, op: usize, value: f64) -> Dual<K> {
        self.lift(op, 2, value)
    }
}

/// One tangent direction for [`CompiledFlow::analyze_duals`]: a
/// weighted combination of patch-slot parameters.
///
/// Weights use the *per-input-unit* semantics of the [`FlowPatch`]
/// setters: a weight `w` on a [`SlotKind::Cost`] slot means the unit
/// cost moves at rate `w` along the direction (the folded op cost moves
/// at `w·quantity`), a weight on a [`SlotKind::Yield`] slot moves the
/// per-unit success probability (the folded `p^q` moves by the chain
/// rule), and a [`SlotKind::Coverage`] weight moves the test coverage
/// directly. The returned [`Gradient`] is therefore directly comparable
/// to a finite difference of `set_cost`/`set_yield`/`set_coverage`
/// patches.
///
/// [`CompiledFlow::analyze_duals`]: crate::CompiledFlow::analyze_duals
/// [`FlowPatch`]: crate::FlowPatch
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DualDirection {
    pub(crate) parts: Vec<(String, SlotKind, f64)>,
}

impl DualDirection {
    /// An empty direction (gradient zero until parts are added).
    pub fn new() -> DualDirection {
        DualDirection::default()
    }

    /// Add a component: slot `slot` of kind `kind` moving at `weight`
    /// per unit of the direction parameter.
    #[must_use]
    pub fn with(mut self, slot: impl Into<String>, kind: SlotKind, weight: f64) -> DualDirection {
        self.parts.push((slot.into(), kind, weight));
        self
    }
}

/// Exact directional derivatives of one evaluated flow along one
/// [`DualDirection`] — every scalar the report exposes, differentiated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gradient {
    /// ∂(final cost per shipped unit)/∂direction (Eq. 1, NRE included).
    pub final_cost_per_shipped: f64,
    /// ∂(direct cost per shipped unit)/∂direction.
    pub direct_cost_per_shipped: f64,
    /// ∂(yield loss per shipped unit)/∂direction.
    pub yield_loss_per_shipped: f64,
    /// ∂(total production spend)/∂direction.
    pub total_spend: f64,
    /// ∂(shipped fraction)/∂direction.
    pub shipped_fraction: f64,
    /// ∂(escape rate)/∂direction.
    pub escape_rate: f64,
    /// ∂(per-category cost per shipped unit)/∂direction, indexed by
    /// [`CostCategory::index`].
    pub by_category: [f64; CostCategory::COUNT],
}

/// The result of a dual pass: the primal report (bit-identical to
/// [`CompiledFlow::analyze`]) plus one [`Gradient`] per requested
/// direction.
///
/// [`CompiledFlow::analyze`]: crate::CompiledFlow::analyze
#[derive(Debug, Clone, PartialEq)]
pub struct DualReport {
    /// The primal cost report.
    pub report: CostReport,
    /// Per-direction gradients, aligned with the request order.
    pub gradients: Vec<Gradient>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d2(val: f64, e0: f64, e1: f64) -> Dual<2> {
        Dual { val, eps: [e0, e1] }
    }

    #[test]
    fn arithmetic_matches_calculus() {
        let x = d2(3.0, 1.0, 0.0);
        let y = d2(2.0, 0.0, 1.0);
        let s = x + y;
        assert_eq!((s.val, s.eps), (5.0, [1.0, 1.0]));
        let p = x * y;
        assert_eq!((p.val, p.eps), (6.0, [2.0, 3.0]));
        let q = x / y;
        assert_eq!(q.val, 1.5);
        assert!((q.eps[0] - 0.5).abs() < 1e-15); // 1/y
        assert!((q.eps[1] + 0.75).abs() < 1e-15); // −x/y²
        let w = x.powf(2.0);
        assert_eq!(w.val, 9.0);
        assert!((w.eps[0] - 6.0).abs() < 1e-15); // 2x
    }

    #[test]
    fn primal_component_is_the_plain_f64_operation() {
        // Values that expose any algebraic rearrangement of the primal.
        let a = d2(0.1, 1.0, 0.0);
        let b = d2(0.3, 0.0, 1.0);
        assert_eq!((a + b).val, 0.1 + 0.3);
        assert_eq!((a * b).val, 0.1 * 0.3);
        assert_eq!((a / b).val, 0.1 / 0.3);
        assert_eq!(a.powf(2.5).val, 0.1f64.powf(2.5));
        assert_eq!(a.scale(0.7).val, 0.1 * 0.7);
    }

    #[test]
    fn seed_table_accumulates_repeated_slots() {
        let mut t = SeedTable::<2>::new(3);
        t.seed(1, SlotKind::Cost, 0, 2.0);
        t.seed(1, SlotKind::Cost, 0, 3.0);
        t.seed(1, SlotKind::Yield, 1, 4.0);
        let c: Dual<2> = t.cost(1, 7.0);
        assert_eq!((c.val, c.eps), (7.0, [5.0, 0.0]));
        let y: Dual<2> = t.p_good(1, 0.9);
        assert_eq!((y.val, y.eps), (0.9, [0.0, 4.0]));
        let untouched: Dual<2> = t.coverage(2, 0.5);
        assert_eq!(untouched.eps, [0.0, 0.0]);
    }

    #[test]
    fn direction_builders_compose() {
        let d =
            DualDirection::new()
                .with("a", SlotKind::Cost, 1.0)
                .with("b", SlotKind::Yield, -0.5);
        assert_eq!(
            d.parts,
            vec![
                ("a".to_owned(), SlotKind::Cost, 1.0),
                ("b".to_owned(), SlotKind::Yield, -0.5)
            ]
        );
    }
}
