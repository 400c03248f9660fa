//! Newtype quantities for the electrical and economic dimensions used by
//! the methodology.

use crate::si::{format_engineering, parse_engineering};
use crate::ParseQuantityError;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, $unit:expr, $base:ident
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Create from the base unit.
            ///
            /// # Panics
            ///
            /// Panics on NaN; quantities must always be comparable.
            pub fn new(value: f64) -> $name {
                assert!(!value.is_nan(), concat!(stringify!($name), " must not be NaN"));
                $name(value)
            }

            /// The value in the base unit.
            pub fn $base(self) -> f64 {
                self.0
            }

            /// Linear interpolation: `self + t * (other - self)`.
            pub fn lerp(self, other: $name, t: f64) -> $name {
                $name::new(self.0 + t * (other.0 - self.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name::new(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                *self = *self + rhs;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name::new(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                *self = *self - rhs;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name::new(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name::new(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name::new(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&format_engineering(self.0, $unit))
            }
        }

        impl FromStr for $name {
            type Err = ParseQuantityError;

            fn from_str(s: &str) -> Result<$name, ParseQuantityError> {
                parse_engineering(s, $unit).map($name::new)
            }
        }

        impl From<$name> for f64 {
            fn from(q: $name) -> f64 {
                q.0
            }
        }
    };
}

quantity! {
    /// Electrical resistance in ohms.
    ///
    /// # Examples
    ///
    /// ```
    /// use ipass_units::Resistance;
    ///
    /// let r: Resistance = "100 kΩ".parse()?;
    /// assert_eq!(r, Resistance::from_kilo(100.0));
    /// assert_eq!(r.to_string(), "100 kΩ");
    /// # Ok::<(), ipass_units::ParseQuantityError>(())
    /// ```
    Resistance, "Ω", ohms
}

quantity! {
    /// Electrical capacitance in farads.
    ///
    /// # Examples
    ///
    /// ```
    /// use ipass_units::Capacitance;
    ///
    /// let c = Capacitance::from_pico(50.0);
    /// assert_eq!(c.to_string(), "50 pF");
    /// ```
    Capacitance, "F", farads
}

quantity! {
    /// Electrical inductance in henries.
    ///
    /// # Examples
    ///
    /// ```
    /// use ipass_units::Inductance;
    ///
    /// let l = Inductance::from_nano(40.0);
    /// assert_eq!(l.to_string(), "40 nH");
    /// ```
    Inductance, "H", henries
}

quantity! {
    /// Frequency in hertz.
    ///
    /// # Examples
    ///
    /// ```
    /// use ipass_units::Frequency;
    ///
    /// let f = Frequency::from_mega(175.0);
    /// assert!((f.angular() - 2.0 * std::f64::consts::PI * 175e6).abs() < 1.0);
    /// ```
    Frequency, "Hz", hertz
}

impl Resistance {
    /// Create from kilohms.
    pub fn from_kilo(kohms: f64) -> Resistance {
        Resistance::new(kohms * 1e3)
    }

    /// Create from megohms.
    pub fn from_mega(mohms: f64) -> Resistance {
        Resistance::new(mohms * 1e6)
    }
}

impl Capacitance {
    /// Create from picofarads.
    pub fn from_pico(pf: f64) -> Capacitance {
        Capacitance::new(pf * 1e-12)
    }

    /// Create from nanofarads.
    pub fn from_nano(nf: f64) -> Capacitance {
        Capacitance::new(nf * 1e-9)
    }

    /// Create from microfarads.
    pub fn from_micro(uf: f64) -> Capacitance {
        Capacitance::new(uf * 1e-6)
    }

    /// The value in picofarads.
    pub fn picofarads(self) -> f64 {
        self.farads() * 1e12
    }
}

impl Inductance {
    /// Create from nanohenries.
    pub fn from_nano(nh: f64) -> Inductance {
        Inductance::new(nh * 1e-9)
    }

    /// Create from microhenries.
    pub fn from_micro(uh: f64) -> Inductance {
        Inductance::new(uh * 1e-6)
    }
}

impl Frequency {
    /// Create from megahertz.
    pub fn from_mega(mhz: f64) -> Frequency {
        Frequency::new(mhz * 1e6)
    }

    /// Create from gigahertz.
    pub fn from_giga(ghz: f64) -> Frequency {
        Frequency::new(ghz * 1e9)
    }

    /// The angular frequency `ω = 2πf` in rad/s.
    pub fn angular(self) -> f64 {
        2.0 * std::f64::consts::PI * self.hertz()
    }

    /// The value in megahertz.
    pub fn megahertz(self) -> f64 {
        self.hertz() * 1e-6
    }

    /// The value in gigahertz.
    pub fn gigahertz(self) -> f64 {
        self.hertz() * 1e-9
    }
}

/// A surface area, stored in mm² (the natural unit of Table 1).
///
/// # Examples
///
/// ```
/// use ipass_units::Area;
///
/// let rf_chip = Area::from_mm2(225.0);
/// let dsp = Area::from_mm2(1165.0);
/// let total = rf_chip + dsp;
/// assert!((total.cm2() - 13.9).abs() < 1e-9);
/// assert_eq!(format!("{total}"), "1390.0 mm²");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Area(f64);

impl Area {
    /// The zero area.
    pub const ZERO: Area = Area(0.0);

    /// Create from square millimetres.
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative values — a negative area is always a
    /// logic error.
    pub fn from_mm2(mm2: f64) -> Area {
        assert!(
            !mm2.is_nan() && mm2 >= 0.0,
            "area must be non-negative, got {mm2}"
        );
        Area(mm2)
    }

    /// Create from square centimetres.
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative values.
    pub fn from_cm2(cm2: f64) -> Area {
        Area::from_mm2(cm2 * 100.0)
    }

    /// Create the area of a `w × h` mm rectangle.
    ///
    /// # Panics
    ///
    /// Panics on NaN or negative side lengths.
    pub fn rect_mm(w: f64, h: f64) -> Area {
        assert!(
            w >= 0.0 && h >= 0.0 && !w.is_nan() && !h.is_nan(),
            "rectangle sides must be non-negative, got {w} x {h}"
        );
        Area(w * h)
    }

    /// The value in mm².
    pub fn mm2(self) -> f64 {
        self.0
    }

    /// The value in cm².
    pub fn cm2(self) -> f64 {
        self.0 / 100.0
    }

    /// The side length (mm) of the square with this area.
    pub fn square_side_mm(self) -> f64 {
        self.0.sqrt()
    }
}

impl Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl AddAssign for Area {
    fn add_assign(&mut self, rhs: Area) {
        self.0 += rhs.0;
    }
}

impl Sub for Area {
    type Output = Area;
    /// Saturating subtraction: areas cannot go negative.
    fn sub(self, rhs: Area) -> Area {
        Area((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Area {
    type Output = Area;
    fn mul(self, rhs: f64) -> Area {
        Area::from_mm2(self.0 * rhs)
    }
}

impl Mul<Area> for f64 {
    type Output = Area;
    fn mul(self, rhs: Area) -> Area {
        rhs * self
    }
}

impl Div<f64> for Area {
    type Output = Area;
    fn div(self, rhs: f64) -> Area {
        Area::from_mm2(self.0 / rhs)
    }
}

impl Div<Area> for Area {
    type Output = f64;
    fn div(self, rhs: Area) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        iter.fold(Area::ZERO, Add::add)
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mm²", self.0)
    }
}

/// A monetary amount in abstract "cost units" (the paper never names a
/// currency; Table 2's numbers are relative).
///
/// # Examples
///
/// ```
/// use ipass_units::Money;
///
/// let substrate = Money::new(14.18);
/// let packaging = Money::new(7.30);
/// assert_eq!((substrate + packaging).to_string(), "21.48");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Money(f64);

impl Money {
    /// Zero cost.
    pub const ZERO: Money = Money(0.0);

    /// Create a monetary amount.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn new(units: f64) -> Money {
        assert!(!units.is_nan(), "money must not be NaN");
        Money(units)
    }

    /// The amount in cost units.
    pub fn units(self) -> f64 {
        self.0
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money(self.0 + rhs.0)
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.0 += rhs.0;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money(self.0 - rhs.0)
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        self.0 -= rhs.0;
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(-self.0)
    }
}

impl Mul<f64> for Money {
    type Output = Money;
    fn mul(self, rhs: f64) -> Money {
        Money::new(self.0 * rhs)
    }
}

impl Mul<Money> for f64 {
    type Output = Money;
    fn mul(self, rhs: Money) -> Money {
        rhs * self
    }
}

impl Div<f64> for Money {
    type Output = Money;
    fn div(self, rhs: f64) -> Money {
        Money::new(self.0 / rhs)
    }
}

impl Div<Money> for Money {
    type Output = f64;
    fn div(self, rhs: Money) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantity_arithmetic() {
        let a = Resistance::new(100.0);
        let b = Resistance::new(50.0);
        assert_eq!((a + b).ohms(), 150.0);
        assert_eq!((a - b).ohms(), 50.0);
        assert_eq!((a * 2.0).ohms(), 200.0);
        assert_eq!((2.0 * a).ohms(), 200.0);
        assert_eq!((a / 2.0).ohms(), 50.0);
        assert_eq!(a / b, 2.0);
        assert_eq!((-a).ohms(), -100.0);
        assert_eq!(a.lerp(b, 0.5).ohms(), 75.0);
    }

    #[test]
    fn quantity_sum() {
        let total: Resistance = (1..=4).map(|i| Resistance::new(i as f64)).sum();
        assert_eq!(total.ohms(), 10.0);
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(Resistance::from_kilo(100.0).ohms(), 100e3);
        assert_eq!(Resistance::from_mega(1.0).ohms(), 1e6);
        assert_eq!(Capacitance::from_pico(50.0).picofarads(), 50.0);
        assert!((Capacitance::from_nano(4.7).farads() - 4.7e-9).abs() < 1e-21);
        assert_eq!(Capacitance::from_micro(1.0).farads(), 1e-6);
        assert!((Inductance::from_nano(40.0).henries() - 40e-9).abs() < 1e-21);
        assert_eq!(Inductance::from_micro(1.0).henries(), 1e-6);
        assert_eq!(Frequency::from_mega(175.0).megahertz(), 175.0);
        assert!((Frequency::from_giga(1.575).gigahertz() - 1.575).abs() < 1e-12);
    }

    #[test]
    fn display_uses_engineering_notation() {
        assert_eq!(Resistance::from_kilo(100.0).to_string(), "100 kΩ");
        assert_eq!(Capacitance::from_pico(50.0).to_string(), "50 pF");
        assert_eq!(Inductance::from_nano(40.0).to_string(), "40 nH");
        assert_eq!(Frequency::from_giga(1.575).to_string(), "1.575 GHz");
    }

    #[test]
    fn parse_roundtrip() {
        let r: Resistance = "360 Ω".parse().unwrap();
        assert_eq!(r.ohms(), 360.0);
        let c: Capacitance = "3.3nF".parse().unwrap();
        assert!((c.farads() - 3.3e-9).abs() < 1e-21);
        let f: Frequency = "1.575 GHz".parse().unwrap();
        assert!((f.gigahertz() - 1.575).abs() < 1e-12);
        assert!("".parse::<Resistance>().is_err());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Resistance::new(f64::NAN);
    }

    #[test]
    fn area_construction_and_units() {
        let a = Area::from_cm2(1.0);
        assert_eq!(a.mm2(), 100.0);
        assert_eq!(a.cm2(), 1.0);
        assert_eq!(Area::rect_mm(4.0, 2.5).mm2(), 10.0);
        assert_eq!(Area::from_mm2(25.0).square_side_mm(), 5.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_area_rejected() {
        let _ = Area::from_mm2(-1.0);
    }

    #[test]
    fn area_subtraction_saturates() {
        let small = Area::from_mm2(1.0);
        let big = Area::from_mm2(2.0);
        assert_eq!((small - big).mm2(), 0.0);
        assert_eq!((big - small).mm2(), 1.0);
    }

    #[test]
    fn money_accounting() {
        let mut total = Money::ZERO;
        total += Money::new(10.0);
        total += Money::new(4.7);
        total -= Money::new(0.7);
        assert_eq!(total.units(), 14.0);
        assert_eq!(Money::new(10.0) / Money::new(4.0), 2.5);
        assert_eq!(format!("{}", Money::new(104.7)), "104.70");
    }

    #[test]
    fn frequency_angular() {
        let w = Frequency::from_mega(1.0).angular();
        assert!((w - 2.0 * std::f64::consts::PI * 1e6).abs() < 1e-3);
    }

    proptest! {
        #[test]
        fn area_sum_is_monotonic(xs in proptest::collection::vec(0.0f64..1e5, 0..20)) {
            let mut acc = Area::ZERO;
            for &x in &xs {
                let next = acc + Area::from_mm2(x);
                prop_assert!(next.mm2() >= acc.mm2());
                acc = next;
            }
        }

        #[test]
        fn quantity_div_mul_roundtrip(v in -1e9f64..1e9, k in 0.001f64..1e3) {
            let q = Resistance::new(v);
            let back = (q * k) / k;
            prop_assert!((back.ohms() - v).abs() <= v.abs() * 1e-12 + 1e-12);
        }
    }
}
