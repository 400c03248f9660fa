//! A small complex-number type (kept in-tree to avoid an external
//! dependency for ~200 lines of arithmetic).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use ipass_rf::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// assert_eq!((z * z.conj()).re, 25.0);
/// let r = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_2);
/// assert!((r.re).abs() < 1e-12 && (r.im - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Create from rectangular components.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Create a purely real number.
    pub fn real(re: f64) -> Complex {
        Complex { re, im: 0.0 }
    }

    /// Create a purely imaginary number.
    pub fn imag(im: f64) -> Complex {
        Complex { re: 0.0, im }
    }

    /// Create from polar form `r·e^{iθ}`.
    pub fn from_polar(r: f64, theta: f64) -> Complex {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Magnitude `|z|`.
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Reciprocal `1/z`.
    ///
    /// Division by zero produces infinities, mirroring `f64` semantics.
    pub fn recip(self) -> Complex {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Principal square root.
    pub fn sqrt(self) -> Complex {
        Complex::from_polar(self.norm().sqrt(), self.arg() / 2.0)
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Complex {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: i32) -> Complex {
        if n == 0 {
            return Complex::ONE;
        }
        let mut base = if n < 0 { self.recip() } else { self };
        n = n.abs();
        let mut acc = Complex::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            n >>= 1;
        }
        acc
    }

    /// Whether both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Div for Complex {
    type Output = Complex;
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ is the definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Add<f64> for Complex {
    type Output = Complex;
    fn add(self, rhs: f64) -> Complex {
        Complex::new(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex {
    type Output = Complex;
    fn sub(self, rhs: f64) -> Complex {
        Complex::new(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        rhs * self
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Div<Complex> for f64 {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        Complex::real(self) / rhs
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Complex {
        Complex::real(re)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: Complex, b: Complex, eps: f64) -> bool {
        (a - b).norm() <= eps * (1.0 + a.norm().max(b.norm()))
    }

    #[test]
    fn basic_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert!(close(a / b, a * b.recip(), 1e-15));
        let mut c = a;
        c += b;
        assert_eq!(c, Complex::new(4.0, 1.0));
        c *= Complex::I;
        assert_eq!(c, Complex::new(-1.0, 4.0));
    }

    #[test]
    fn scalar_ops() {
        let z = Complex::new(2.0, 4.0);
        assert_eq!(z + 1.0, Complex::new(3.0, 4.0));
        assert_eq!(z - 1.0, Complex::new(1.0, 4.0));
        assert_eq!(z * 0.5, Complex::new(1.0, 2.0));
        assert_eq!(2.0 * z, Complex::new(4.0, 8.0));
        assert_eq!(z / 2.0, Complex::new(1.0, 2.0));
        assert!(close(1.0 / z, z.recip(), 1e-15));
        assert_eq!(Complex::from(3.0), Complex::real(3.0));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex::I * Complex::I, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::new(-3.0, 4.0);
        let back = Complex::from_polar(z.norm(), z.arg());
        assert!(close(z, back, 1e-14));
    }

    #[test]
    fn sqrt_squares_back() {
        for z in [
            Complex::new(4.0, 0.0),
            Complex::new(0.0, 2.0),
            Complex::new(-1.0, 0.0),
            Complex::new(3.0, -4.0),
        ] {
            let r = z.sqrt();
            assert!(close(r * r, z, 1e-12), "sqrt({z})² = {}", r * r);
            // Principal branch: non-negative real part.
            assert!(r.re >= -1e-12);
        }
    }

    #[test]
    fn exp_of_i_pi() {
        let z = Complex::imag(std::f64::consts::PI).exp();
        assert!(close(z, Complex::new(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let z = Complex::new(1.2, -0.7);
        let mut acc = Complex::ONE;
        for k in 0..=6 {
            assert!(close(z.powi(k), acc, 1e-12), "k={k}");
            acc *= z;
        }
        assert!(close(z.powi(-2), (z * z).recip(), 1e-12));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1.000000-2.000000j");
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1.000000+2.000000j");
    }

    #[test]
    fn is_finite_detects_infinities() {
        assert!(Complex::new(1.0, 1.0).is_finite());
        assert!(!Complex::new(f64::INFINITY, 0.0).is_finite());
        assert!(!(Complex::ONE / Complex::ZERO).is_finite());
    }

    proptest! {
        #[test]
        fn mul_div_roundtrip(a in -1e3f64..1e3, b in -1e3f64..1e3, c in -1e3f64..1e3, d in -1e3f64..1e3) {
            prop_assume!(c.abs() + d.abs() > 1e-6);
            let x = Complex::new(a, b);
            let y = Complex::new(c, d);
            let z = (x / y) * y;
            prop_assert!(close(z, x, 1e-10));
        }

        #[test]
        fn norm_is_multiplicative(a in -1e3f64..1e3, b in -1e3f64..1e3, c in -1e3f64..1e3, d in -1e3f64..1e3) {
            let x = Complex::new(a, b);
            let y = Complex::new(c, d);
            prop_assert!(((x * y).norm() - x.norm() * y.norm()).abs() < 1e-6 * (1.0 + x.norm() * y.norm()));
        }

        #[test]
        fn conj_distributes_over_mul(a in -1e2f64..1e2, b in -1e2f64..1e2, c in -1e2f64..1e2, d in -1e2f64..1e2) {
            let x = Complex::new(a, b);
            let y = Complex::new(c, d);
            prop_assert!(close((x * y).conj(), x.conj() * y.conj(), 1e-12));
        }
    }
}
