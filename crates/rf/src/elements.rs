//! Circuit elements with loss models, composable into one-port
//! immittances.

use crate::complex::Complex;
use ipass_units::{Capacitance, Frequency, Inductance, Resistance};
use std::fmt;

/// Loss model of a reactive element.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Loss {
    /// No loss.
    #[default]
    Ideal,
    /// Constant unloaded Q across frequency (a good model for SMD parts
    /// within a band).
    Q(f64),
    /// Constant series resistance in Ω (a good model for thin-film
    /// spirals near one band: `Q = ωL/R` then falls with decreasing
    /// frequency, the paper's key observation).
    SeriesR(f64),
}

impl Loss {
    /// The series resistance this loss model implies for a reactance of
    /// magnitude `x` ohms.
    fn series_r(self, x: f64) -> f64 {
        match self {
            Loss::Ideal => 0.0,
            Loss::Q(q) => {
                assert!(q > 0.0, "Q must be positive, got {q}");
                x.abs() / q
            }
            Loss::SeriesR(r) => {
                assert!(r >= 0.0, "series resistance must be non-negative, got {r}");
                r
            }
        }
    }
}

/// A one-port immittance: a composition of (lossy) R, L, C elements.
///
/// # Examples
///
/// ```
/// use ipass_rf::{Immittance, Loss};
/// use ipass_units::{Capacitance, Frequency, Inductance};
///
/// // A series LC resonator, resonant at 1/2π√(LC):
/// let lc = Immittance::series(vec![
///     Immittance::inductor(Inductance::from_nano(40.0), Loss::Ideal),
///     Immittance::capacitor(Capacitance::from_pico(10.0), Loss::Ideal),
/// ]);
/// let f0 = 1.0 / (2.0 * std::f64::consts::PI * (40e-9f64 * 10e-12).sqrt());
/// let z = lc.impedance(Frequency::new(f0));
/// assert!(z.norm() < 1e-6); // short at resonance
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Immittance {
    /// An ideal resistor.
    Resistor(Resistance),
    /// An inductor with a loss model.
    Inductor {
        /// Inductance value.
        henries: Inductance,
        /// Loss model.
        loss: Loss,
    },
    /// A capacitor with a loss model.
    Capacitor {
        /// Capacitance value.
        farads: Capacitance,
        /// Loss model.
        loss: Loss,
    },
    /// Elements in series (impedances add).
    Series(Vec<Immittance>),
    /// Elements in parallel (admittances add).
    Parallel(Vec<Immittance>),
}

impl Immittance {
    /// An inductor with the given loss model.
    pub fn inductor(l: Inductance, loss: Loss) -> Immittance {
        Immittance::Inductor { henries: l, loss }
    }

    /// A capacitor with the given loss model.
    pub fn capacitor(c: Capacitance, loss: Loss) -> Immittance {
        Immittance::Capacitor { farads: c, loss }
    }

    /// A series combination.
    pub fn series(parts: Vec<Immittance>) -> Immittance {
        Immittance::Series(parts)
    }

    /// A parallel combination.
    pub fn parallel(parts: Vec<Immittance>) -> Immittance {
        Immittance::Parallel(parts)
    }

    /// The complex impedance at frequency `f`.
    ///
    /// Empty series/parallel groups behave as a short / an open
    /// respectively (the identity elements of the compositions).
    pub fn impedance(&self, f: Frequency) -> Complex {
        let w = f.angular();
        match self {
            Immittance::Resistor(r) => Complex::real(r.ohms()),
            Immittance::Inductor { henries, loss } => {
                let x = w * henries.henries();
                Complex::new(loss.series_r(x), x)
            }
            Immittance::Capacitor { farads, loss } => {
                let x = -1.0 / (w * farads.farads());
                Complex::new(loss.series_r(x), x)
            }
            Immittance::Series(parts) => parts
                .iter()
                .fold(Complex::ZERO, |acc, p| acc + p.impedance(f)),
            Immittance::Parallel(parts) => {
                let y = parts
                    .iter()
                    .fold(Complex::ZERO, |acc, p| acc + safe_recip(p.impedance(f)));
                safe_recip(y)
            }
        }
    }

    /// The complex admittance at frequency `f`.
    ///
    /// A branch that is an exact short (e.g. an ideal series LC evaluated
    /// precisely at resonance) returns a very large — but finite —
    /// admittance so downstream matrix algebra stays NaN-free.
    pub fn admittance(&self, f: Frequency) -> Complex {
        safe_recip(self.impedance(f))
    }

    /// Count of primitive R/L/C elements (for BOM accounting).
    ///
    /// See also [`Immittance::admittance`] for the NaN-free reciprocal
    /// used in ladder analysis.
    pub fn element_count(&self) -> usize {
        match self {
            Immittance::Resistor(_)
            | Immittance::Inductor { .. }
            | Immittance::Capacitor { .. } => 1,
            Immittance::Series(parts) | Immittance::Parallel(parts) => {
                parts.iter().map(Immittance::element_count).sum()
            }
        }
    }
}

/// Reciprocal with exact zeros mapped to a huge finite value, keeping
/// ideal resonators NaN-free at their exact resonance.
fn safe_recip(z: Complex) -> Complex {
    if z.norm_sqr() == 0.0 {
        Complex::real(1e30)
    } else {
        z.recip()
    }
}

impl fmt::Display for Immittance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Immittance::Resistor(r) => write!(f, "R({r})"),
            Immittance::Inductor { henries, .. } => write!(f, "L({henries})"),
            Immittance::Capacitor { farads, .. } => write!(f, "C({farads})"),
            Immittance::Series(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Immittance::Parallel(parts) => {
                write!(f, "(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∥ ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const F1: Frequency = Frequency::ZERO;

    fn f(mhz: f64) -> Frequency {
        Frequency::from_mega(mhz)
    }

    #[test]
    fn resistor_is_flat() {
        let r = Immittance::Resistor(Resistance::new(50.0));
        assert_eq!(r.impedance(f(1.0)), Complex::real(50.0));
        assert_eq!(r.impedance(f(1000.0)), Complex::real(50.0));
        let _ = F1; // silence unused in case of cfg changes
    }

    #[test]
    fn ideal_inductor_reactance() {
        let l = Immittance::inductor(Inductance::from_nano(100.0), Loss::Ideal);
        let z = l.impedance(f(175.0));
        assert_eq!(z.re, 0.0);
        assert!((z.im - 2.0 * std::f64::consts::PI * 175e6 * 100e-9).abs() < 1e-9);
    }

    #[test]
    fn lossy_inductor_q() {
        let l = Immittance::inductor(Inductance::from_nano(100.0), Loss::Q(12.0));
        let z = l.impedance(f(175.0));
        assert!((z.im / z.re - 12.0).abs() < 1e-9);
    }

    #[test]
    fn series_r_inductor_q_scales_with_frequency() {
        // Constant series R: Q doubles when frequency doubles.
        let l = Immittance::inductor(Inductance::from_nano(100.0), Loss::SeriesR(10.0));
        let q1 = {
            let z = l.impedance(f(100.0));
            z.im / z.re
        };
        let q2 = {
            let z = l.impedance(f(200.0));
            z.im / z.re
        };
        assert!((q2 / q1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_reactance_is_negative() {
        let c = Immittance::capacitor(Capacitance::from_pico(50.0), Loss::Q(100.0));
        let z = c.impedance(f(175.0));
        assert!(z.im < 0.0);
        assert!((z.im.abs() / z.re - 100.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_resonator_is_open_at_resonance() {
        let lc = Immittance::parallel(vec![
            Immittance::inductor(Inductance::from_nano(40.0), Loss::Ideal),
            Immittance::capacitor(Capacitance::from_pico(10.0), Loss::Ideal),
        ]);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (40e-9f64 * 10e-12).sqrt());
        let z = lc.impedance(Frequency::new(f0));
        assert!(z.norm() > 1e6, "|Z| = {}", z.norm());
    }

    #[test]
    fn series_parallel_compose() {
        // 50Ω + (100Ω ∥ 100Ω) = 100Ω.
        let net = Immittance::series(vec![
            Immittance::Resistor(Resistance::new(50.0)),
            Immittance::parallel(vec![
                Immittance::Resistor(Resistance::new(100.0)),
                Immittance::Resistor(Resistance::new(100.0)),
            ]),
        ]);
        assert!((net.impedance(f(10.0)).re - 100.0).abs() < 1e-9);
        assert_eq!(net.element_count(), 3);
    }

    #[test]
    fn empty_groups_are_identities() {
        let short = Immittance::series(vec![]);
        assert_eq!(short.impedance(f(1.0)), Complex::ZERO);
        // An empty parallel group is an open: an effectively infinite
        // (huge finite) impedance.
        let open = Immittance::parallel(vec![]);
        assert!(open.impedance(f(1.0)).norm() > 1e20);
    }

    #[test]
    #[should_panic(expected = "Q must be positive")]
    fn zero_q_rejected() {
        let l = Immittance::inductor(Inductance::from_nano(10.0), Loss::Q(0.0));
        let _ = l.impedance(f(100.0));
    }

    #[test]
    fn display_renders_topology() {
        let net = Immittance::series(vec![
            Immittance::Resistor(Resistance::new(50.0)),
            Immittance::parallel(vec![
                Immittance::inductor(Inductance::from_nano(40.0), Loss::Ideal),
                Immittance::capacitor(Capacitance::from_pico(10.0), Loss::Ideal),
            ]),
        ]);
        let s = net.to_string();
        assert!(s.contains("+") && s.contains("∥"));
    }

    proptest! {
        #[test]
        fn admittance_is_reciprocal(r in 1.0f64..1e4, mhz in 1.0f64..1e3) {
            let net = Immittance::Resistor(Resistance::new(r));
            let z = net.impedance(f(mhz));
            let y = net.admittance(f(mhz));
            prop_assert!(((z * y) - Complex::ONE).norm() < 1e-12);
        }

        #[test]
        fn lossy_impedances_are_passive(nh in 1.0f64..1000.0, q in 1.0f64..500.0, mhz in 1.0f64..3e3) {
            let l = Immittance::inductor(Inductance::from_nano(nh), Loss::Q(q));
            prop_assert!(l.impedance(f(mhz)).re >= 0.0);
        }
    }
}
