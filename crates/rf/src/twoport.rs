//! Two-port networks: ABCD (chain) matrices, S-parameters and ladder
//! networks.

use crate::complex::Complex;
use crate::elements::Immittance;
use ipass_units::{voltage_ratio_to_db, Frequency};
use std::fmt;
use std::ops::Mul;

/// An ABCD (chain) matrix.
///
/// Cascading networks multiplies their ABCD matrices; reciprocal
/// networks satisfy `AD − BC = 1`.
///
/// # Examples
///
/// ```
/// use ipass_rf::{Abcd, Complex};
///
/// let series_50 = Abcd::series_z(Complex::real(50.0));
/// let shunt_50 = Abcd::shunt_y(Complex::real(1.0 / 50.0));
/// let l_section = series_50 * shunt_50;
/// assert!((l_section.determinant() - Complex::ONE).norm() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Abcd {
    /// Voltage ratio term.
    pub a: Complex,
    /// Transfer impedance term (Ω).
    pub b: Complex,
    /// Transfer admittance term (S).
    pub c: Complex,
    /// Current ratio term.
    pub d: Complex,
}

impl Abcd {
    /// The identity (a through-connection).
    pub const IDENTITY: Abcd = Abcd {
        a: Complex::ONE,
        b: Complex::ZERO,
        c: Complex::ZERO,
        d: Complex::ONE,
    };

    /// A series impedance `z`.
    pub fn series_z(z: Complex) -> Abcd {
        Abcd {
            a: Complex::ONE,
            b: z,
            c: Complex::ZERO,
            d: Complex::ONE,
        }
    }

    /// A shunt admittance `y`.
    pub fn shunt_y(y: Complex) -> Abcd {
        Abcd {
            a: Complex::ONE,
            b: Complex::ZERO,
            c: y,
            d: Complex::ONE,
        }
    }

    /// The determinant `AD − BC` (1 for reciprocal networks).
    pub fn determinant(&self) -> Complex {
        self.a * self.d - self.b * self.c
    }

    /// Convert to S-parameters with different real reference impedances at
    /// the two ports (Frickey 1994, real-reference case). `|S21|²` is then
    /// the transducer power gain relative to the maximum transfer between
    /// the unequal terminations.
    ///
    /// # Panics
    ///
    /// Panics if either reference is not a positive finite number.
    pub fn to_s_params_between(&self, z_source: f64, z_load: f64) -> SParams {
        assert!(
            z_source.is_finite() && z_source > 0.0,
            "reference impedance must be positive, got {z_source}"
        );
        assert!(
            z_load.is_finite() && z_load > 0.0,
            "reference impedance must be positive, got {z_load}"
        );
        let zs = Complex::real(z_source);
        let zl = Complex::real(z_load);
        let root = (z_source * z_load).sqrt();
        let denom = self.a * zl + self.b + self.c * zs * zl + self.d * zs;
        SParams {
            s11: (self.a * zl + self.b - self.c * zs * zl - self.d * zs) / denom,
            s12: (self.determinant() * (2.0 * root)) / denom,
            s21: Complex::real(2.0 * root) / denom,
            s22: (self.b + self.d * zs - self.a * zl - self.c * zs * zl) / denom,
        }
    }
}

impl Mul for Abcd {
    type Output = Abcd;

    /// Cascade: `self` followed by `rhs`.
    fn mul(self, rhs: Abcd) -> Abcd {
        Abcd {
            a: self.a * rhs.a + self.b * rhs.c,
            b: self.a * rhs.b + self.b * rhs.d,
            c: self.c * rhs.a + self.d * rhs.c,
            d: self.c * rhs.b + self.d * rhs.d,
        }
    }
}

impl Default for Abcd {
    fn default() -> Abcd {
        Abcd::IDENTITY
    }
}

/// Scattering parameters of a two-port in a real reference impedance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SParams {
    /// Input reflection.
    pub s11: Complex,
    /// Reverse transmission.
    pub s12: Complex,
    /// Forward transmission.
    pub s21: Complex,
    /// Output reflection.
    pub s22: Complex,
}

impl SParams {
    /// Insertion loss in dB (positive for loss): `−20·log₁₀|S21|`.
    pub fn insertion_loss_db(&self) -> f64 {
        -voltage_ratio_to_db(self.s21.norm())
    }

    /// Whether the two-port is passive at this point
    /// (`|S11|² + |S21|² ≤ 1`, with slack for rounding).
    pub fn is_passive(&self) -> bool {
        self.s11.norm_sqr() + self.s21.norm_sqr() <= 1.0 + 1e-9
    }
}

/// A branch of a ladder network.
#[derive(Debug, Clone, PartialEq)]
pub enum Branch {
    /// An impedance in the series arm.
    Series(Immittance),
    /// An immittance from the line to ground.
    Shunt(Immittance),
}

impl Branch {
    /// The branch's ABCD matrix at `f`.
    pub fn abcd(&self, f: Frequency) -> Abcd {
        match self {
            Branch::Series(imm) => Abcd::series_z(imm.impedance(f)),
            Branch::Shunt(imm) => Abcd::shunt_y(imm.admittance(f)),
        }
    }

    /// The immittance inside the branch.
    pub fn immittance(&self) -> &Immittance {
        match self {
            Branch::Series(imm) | Branch::Shunt(imm) => imm,
        }
    }
}

/// A doubly-terminated ladder network (the canonical filter structure).
///
/// # Examples
///
/// ```
/// use ipass_rf::{Branch, Immittance, Ladder, Loss};
/// use ipass_units::{Capacitance, Frequency, Inductance};
///
/// // A one-pole RC low-pass: 50Ω system, shunt 100 pF.
/// let ladder = Ladder::new(
///     vec![Branch::Shunt(Immittance::capacitor(
///         Capacitance::from_pico(100.0),
///         Loss::Ideal,
///     ))],
///     50.0,
///     50.0,
/// );
/// let low = ladder.insertion_loss_db(Frequency::from_mega(1.0));
/// let high = ladder.insertion_loss_db(Frequency::from_mega(1000.0));
/// assert!(low < 1.0 && high > 20.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    branches: Vec<Branch>,
    source_ohms: f64,
    load_ohms: f64,
}

impl Ladder {
    /// Create a ladder between real terminations.
    ///
    /// # Panics
    ///
    /// Panics if either termination is not a positive finite resistance.
    pub fn new(branches: Vec<Branch>, source_ohms: f64, load_ohms: f64) -> Ladder {
        assert!(
            source_ohms.is_finite() && source_ohms > 0.0,
            "source termination must be positive, got {source_ohms}"
        );
        assert!(
            load_ohms.is_finite() && load_ohms > 0.0,
            "load termination must be positive, got {load_ohms}"
        );
        Ladder {
            branches,
            source_ohms,
            load_ohms,
        }
    }

    /// The branches, source to load.
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// Source termination in Ω.
    pub fn source_ohms(&self) -> f64 {
        self.source_ohms
    }

    /// Load termination in Ω.
    pub fn load_ohms(&self) -> f64 {
        self.load_ohms
    }

    /// Total primitive element count.
    pub fn element_count(&self) -> usize {
        self.branches
            .iter()
            .map(|b| b.immittance().element_count())
            .sum()
    }

    /// The cascade ABCD matrix at `f`.
    pub fn abcd(&self, f: Frequency) -> Abcd {
        self.branches
            .iter()
            .fold(Abcd::IDENTITY, |acc, b| acc * b.abcd(f))
    }

    /// S-parameters at `f`, referenced to the (possibly unequal) source
    /// and load terminations.
    pub fn s_params(&self, f: Frequency) -> SParams {
        self.abcd(f)
            .to_s_params_between(self.source_ohms, self.load_ohms)
    }

    /// Insertion loss in dB at `f` (relative to the maximum power
    /// transfer between the terminations).
    pub fn insertion_loss_db(&self, f: Frequency) -> f64 {
        self.s_params(f).insertion_loss_db()
    }

    /// Sweep the response over a frequency grid.
    pub fn sweep(&self, freqs: &[Frequency]) -> Vec<(Frequency, SParams)> {
        freqs.iter().map(|&f| (f, self.s_params(f))).collect()
    }
}

impl fmt::Display for Ladder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ladder {}Ω → {} branches → {}Ω",
            self.source_ohms,
            self.branches.len(),
            self.load_ohms
        )
    }
}

/// A linearly spaced frequency grid, inclusive of both ends.
///
/// # Panics
///
/// Panics if `n < 2` or the endpoints are not ordered.
///
/// # Examples
///
/// ```
/// use ipass_rf::linspace;
/// use ipass_units::Frequency;
///
/// let grid = linspace(Frequency::from_mega(100.0), Frequency::from_mega(200.0), 5);
/// assert_eq!(grid.len(), 5);
/// assert!((grid[2].megahertz() - 150.0).abs() < 1e-9);
/// ```
pub fn linspace(start: Frequency, stop: Frequency, n: usize) -> Vec<Frequency> {
    assert!(n >= 2, "need at least two grid points, got {n}");
    assert!(
        stop.hertz() > start.hertz(),
        "stop must exceed start ({start} vs {stop})"
    );
    (0..n)
        .map(|i| start.lerp(stop, i as f64 / (n - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Loss;
    use ipass_units::{Capacitance, Inductance, Resistance};
    use proptest::prelude::*;

    fn mhz(v: f64) -> Frequency {
        Frequency::from_mega(v)
    }

    #[test]
    fn identity_is_transparent() {
        let s = Abcd::IDENTITY.to_s_params_between(50.0, 50.0);
        assert!(s.s11.norm() < 1e-12);
        assert!((s.s21 - Complex::ONE).norm() < 1e-12);
        assert!(s.insertion_loss_db().abs() < 1e-9);
        assert_eq!(Abcd::default(), Abcd::IDENTITY);
    }

    #[test]
    fn matched_series_z0_attenuates_6db() {
        // A series 2×Z0 resistor in a Z0 system: S21 = Z0/(Z0 + Z/2)…
        // classic result: series 100Ω in 50Ω system → S21 = 0.5 → 6.02 dB.
        let s = Abcd::series_z(Complex::real(100.0)).to_s_params_between(50.0, 50.0);
        assert!((s.insertion_loss_db() - 6.0206).abs() < 1e-3);
        assert!(s.is_passive());
    }

    #[test]
    fn cascade_matches_matrix_product() {
        let z = Complex::new(10.0, 25.0);
        let y = Complex::new(0.001, -0.01);
        let cascade = Abcd::series_z(z) * Abcd::shunt_y(y);
        assert!((cascade.a - (Complex::ONE + z * y)).norm() < 1e-12);
        assert!((cascade.b - z).norm() < 1e-12);
        assert!((cascade.c - y).norm() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reference impedance")]
    fn negative_z0_rejected() {
        let _ = Abcd::IDENTITY.to_s_params_between(-50.0, -50.0);
    }

    #[test]
    fn lossless_lc_conserves_power() {
        let ladder = Ladder::new(
            vec![
                Branch::Series(Immittance::inductor(
                    Inductance::from_nano(80.0),
                    Loss::Ideal,
                )),
                Branch::Shunt(Immittance::capacitor(
                    Capacitance::from_pico(30.0),
                    Loss::Ideal,
                )),
            ],
            50.0,
            50.0,
        );
        for f in linspace(mhz(10.0), mhz(2000.0), 40) {
            let s = ladder.s_params(f);
            let sum = s.s11.norm_sqr() + s.s21.norm_sqr();
            assert!((sum - 1.0).abs() < 1e-9, "power sum {sum} at {f}");
        }
    }

    #[test]
    fn lossy_network_dissipates() {
        let ladder = Ladder::new(
            vec![Branch::Series(Immittance::inductor(
                Inductance::from_nano(80.0),
                Loss::Q(10.0),
            ))],
            50.0,
            50.0,
        );
        let s = ladder.s_params(mhz(500.0));
        assert!(s.s11.norm_sqr() + s.s21.norm_sqr() < 1.0);
        assert!(s.is_passive());
    }

    #[test]
    fn unequal_terminations_have_zero_loss_at_match() {
        // An ideal L-match from 50Ω to 200Ω at f0 should show ~0 dB IL at f0.
        // L-section: series L, shunt C (load side), matching 50 → 200.
        let f0 = mhz(1000.0);
        let w = f0.angular();
        let q = (200.0f64 / 50.0 - 1.0).sqrt();
        let xs = q * 50.0;
        let xp = 200.0 / q;
        let ladder = Ladder::new(
            vec![
                Branch::Series(Immittance::inductor(Inductance::new(xs / w), Loss::Ideal)),
                Branch::Shunt(Immittance::capacitor(
                    Capacitance::new(1.0 / (w * xp)),
                    Loss::Ideal,
                )),
            ],
            50.0,
            200.0,
        );
        let il = ladder.insertion_loss_db(f0);
        assert!(il.abs() < 0.01, "insertion loss {il} dB at match");
    }

    #[test]
    fn ladder_accessors() {
        let ladder = Ladder::new(
            vec![Branch::Shunt(Immittance::Resistor(Resistance::new(100.0)))],
            50.0,
            75.0,
        );
        assert_eq!(ladder.branches().len(), 1);
        assert_eq!(ladder.source_ohms(), 50.0);
        assert_eq!(ladder.load_ohms(), 75.0);
        assert_eq!(ladder.element_count(), 1);
        assert!(ladder.to_string().contains("1 branches"));
        assert_eq!(ladder.sweep(&[mhz(1.0), mhz(2.0)]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "source termination")]
    fn bad_termination_rejected() {
        let _ = Ladder::new(vec![], 0.0, 50.0);
    }

    #[test]
    fn linspace_endpoints() {
        let g = linspace(mhz(1.0), mhz(2.0), 3);
        assert!((g[0].megahertz() - 1.0).abs() < 1e-12);
        assert!((g[2].megahertz() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn linspace_needs_two_points() {
        let _ = linspace(mhz(1.0), mhz(2.0), 1);
    }

    proptest! {
        #[test]
        fn reciprocity_of_rlc_ladders(
            l_nh in 1.0f64..500.0,
            c_pf in 1.0f64..500.0,
            r in 1.0f64..500.0,
            f_mhz in 1.0f64..3000.0,
        ) {
            let ladder = Ladder::new(
                vec![
                    Branch::Series(Immittance::inductor(Inductance::from_nano(l_nh), Loss::Ideal)),
                    Branch::Shunt(Immittance::capacitor(Capacitance::from_pico(c_pf), Loss::Ideal)),
                    Branch::Series(Immittance::Resistor(Resistance::new(r))),
                ],
                50.0,
                50.0,
            );
            let abcd = ladder.abcd(mhz(f_mhz));
            let det = abcd.determinant();
            // Relative tolerance: the determinant's rounding error scales
            // with the magnitude of the matrix entries.
            let scale = 1.0 + abcd.a.norm() * abcd.d.norm() + abcd.b.norm() * abcd.c.norm();
            prop_assert!((det - Complex::ONE).norm() < 1e-12 * scale);
            // Reciprocal ⇒ S12 = S21.
            let s = ladder.s_params(mhz(f_mhz));
            prop_assert!((s.s12 - s.s21).norm() < 1e-9 * scale);
        }

        #[test]
        fn passivity_of_lossy_ladders(
            l_nh in 1.0f64..500.0,
            c_pf in 1.0f64..500.0,
            q in 2.0f64..200.0,
            f_mhz in 1.0f64..3000.0,
        ) {
            let ladder = Ladder::new(
                vec![
                    Branch::Series(Immittance::inductor(Inductance::from_nano(l_nh), Loss::Q(q))),
                    Branch::Shunt(Immittance::capacitor(Capacitance::from_pico(c_pf), Loss::Q(q))),
                ],
                50.0,
                50.0,
            );
            prop_assert!(ladder.s_params(mhz(f_mhz)).is_passive());
        }
    }
}
