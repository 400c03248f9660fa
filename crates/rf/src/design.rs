//! Filter design: low-pass prototypes transformed to concrete ladders.

use crate::elements::{Immittance, Loss};
use crate::prototype::{butterworth_g, chebyshev_g, chebyshev_load_g};
use crate::twoport::{Branch, Ladder};
use ipass_units::{Capacitance, Frequency, Inductance};
use std::fmt;

/// Loss models applied to the filter's reactive elements (the default is
/// lossless).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ElementLosses {
    /// Loss model for every inductor.
    pub inductor: Loss,
    /// Loss model for every capacitor.
    pub capacitor: Loss,
}

impl ElementLosses {
    /// Constant unloaded Qs for inductors and capacitors.
    pub fn q(q_l: f64, q_c: f64) -> ElementLosses {
        ElementLosses {
            inductor: Loss::Q(q_l),
            capacitor: Loss::Q(q_c),
        }
    }
}

/// The approximation family of a filter response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Approximation {
    /// Maximally flat passband.
    Butterworth,
    /// Equal-ripple passband with the given ripple (dB).
    Chebyshev {
        /// Passband ripple in dB.
        ripple_db: f64,
    },
}

impl Approximation {
    fn g_values(self, order: usize) -> (Vec<f64>, f64) {
        match self {
            Approximation::Butterworth => (butterworth_g(order), 1.0),
            Approximation::Chebyshev { ripple_db } => (
                chebyshev_g(order, ripple_db),
                chebyshev_load_g(order, ripple_db),
            ),
        }
    }
}

/// A designed bandpass filter: the ladder plus its design parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BandpassDesign {
    ladder: Ladder,
    f0: Frequency,
    bandwidth: Frequency,
    order: usize,
}

impl BandpassDesign {
    /// The realized ladder network.
    pub fn ladder(&self) -> &Ladder {
        &self.ladder
    }

    /// Center frequency.
    pub fn center(&self) -> Frequency {
        self.f0
    }

    /// Design bandwidth.
    pub fn bandwidth(&self) -> Frequency {
        self.bandwidth
    }

    /// Filter order (number of resonators).
    pub fn order(&self) -> usize {
        self.order
    }
}

impl fmt::Display for BandpassDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} bandpass at {} (BW {}, {} elements)",
            self.order,
            self.f0,
            self.bandwidth,
            self.ladder.element_count()
        )
    }
}

fn check_bandpass_args(f0: Frequency, bandwidth: Frequency, z0: f64, order: usize) {
    assert!(order >= 1, "filter order must be at least 1");
    assert!(f0.hertz() > 0.0, "center frequency must be positive");
    assert!(
        bandwidth.hertz() > 0.0 && bandwidth.hertz() < 2.0 * f0.hertz(),
        "bandwidth must be positive and below 2·f0"
    );
    assert!(
        z0 > 0.0 && z0.is_finite(),
        "system impedance must be positive"
    );
}

/// Design a conventional ladder bandpass filter (shunt resonator first)
/// by the standard low-pass → band-pass transformation.
///
/// Odd orders see equal terminations; even Chebyshev orders get the
/// prototype's mismatched load (`gₙ₊₁·Z0`).
///
/// # Panics
///
/// Panics on non-positive order, frequencies, bandwidth or impedance
/// (degenerate designs are programming errors, not data).
///
/// # Examples
///
/// ```
/// use ipass_rf::{bandpass, Approximation, ElementLosses};
/// use ipass_units::Frequency;
///
/// // The GPS IF filter: 2-pole Chebyshev at 175 MHz, 20 MHz wide.
/// let f0 = Frequency::from_mega(175.0);
/// let design = bandpass(
///     2,
///     Approximation::Chebyshev { ripple_db: 0.5 },
///     f0,
///     Frequency::from_mega(20.0),
///     50.0,
///     ElementLosses::default(),
/// );
/// // Lossless: midband insertion loss ≈ 0 dB.
/// assert!(design.ladder().insertion_loss_db(f0) < 0.6);
/// // Far out of band: strong rejection.
/// assert!(design.ladder().insertion_loss_db(Frequency::from_mega(400.0)) > 25.0);
/// ```
pub fn bandpass(
    order: usize,
    approximation: Approximation,
    f0: Frequency,
    bandwidth: Frequency,
    z0: f64,
    losses: ElementLosses,
) -> BandpassDesign {
    check_bandpass_args(f0, bandwidth, z0, order);
    let (g, g_load) = approximation.g_values(order);
    let w0 = f0.angular();
    let delta = bandwidth.hertz() / f0.hertz();

    let mut branches = Vec::with_capacity(order);
    for (k, &gk) in g.iter().enumerate() {
        if k % 2 == 0 {
            // Shunt parallel resonator.
            let c = Capacitance::new(gk / (delta * z0 * w0));
            let l = Inductance::new(delta * z0 / (gk * w0));
            branches.push(Branch::Shunt(Immittance::parallel(vec![
                Immittance::capacitor(c, losses.capacitor),
                Immittance::inductor(l, losses.inductor),
            ])));
        } else {
            // Series series-resonator.
            let l = Inductance::new(gk * z0 / (delta * w0));
            let c = Capacitance::new(delta / (gk * z0 * w0));
            branches.push(Branch::Series(Immittance::series(vec![
                Immittance::inductor(l, losses.inductor),
                Immittance::capacitor(c, losses.capacitor),
            ])));
        }
    }
    let ladder = Ladder::new(branches, z0, z0 * g_load);
    BandpassDesign {
        ladder,
        f0,
        bandwidth,
        order,
    }
}

/// Design an image-reject ("Cauer-type") bandpass: an odd-order Chebyshev
/// bandpass whose *first* shunt resonator is replaced by a *trap*
/// resonator that places a transmission zero at `f_zero` (the image
/// frequency), giving the elliptic-style finite-zero response the paper's
/// LNA output filter uses.
///
/// The trap's shunt L is replaced by a series L′C′ branch resonant at
/// `f_zero` that presents the same effective inductance at `f0`
/// (`L′ = L/(1 − (f_zero/f0)²)` for a zero below the band), so the
/// passband is preserved while `f_zero` is shorted to ground. Only one
/// resonator carries the trap: the enlarged trap inductor has a
/// proportionally larger loss resistance, so trapping every shunt branch
/// would triple the midband loss with low-Q integrated spirals.
///
/// # Panics
///
/// Panics on degenerate parameters, on even orders, or when `f_zero`
/// falls inside the passband.
///
/// # Examples
///
/// ```
/// use ipass_rf::{image_reject_bandpass, ElementLosses};
/// use ipass_units::Frequency;
///
/// // The GPS LNA output filter: pass 1.575 GHz, kill the 1.225 GHz image.
/// let design = image_reject_bandpass(
///     3,
///     0.2,
///     Frequency::from_giga(1.575),
///     Frequency::from_giga(1.225),
///     Frequency::from_mega(470.0),
///     50.0,
///     ElementLosses::default(),
/// );
/// let at_image = design.ladder().insertion_loss_db(Frequency::from_giga(1.225));
/// let at_pass = design.ladder().insertion_loss_db(Frequency::from_giga(1.575));
/// assert!(at_image > 40.0, "image rejection {at_image} dB");
/// assert!(at_pass < 1.0, "passband loss {at_pass} dB");
/// ```
#[allow(clippy::too_many_arguments)]
pub fn image_reject_bandpass(
    order: usize,
    ripple_db: f64,
    f0: Frequency,
    f_zero: Frequency,
    bandwidth: Frequency,
    z0: f64,
    losses: ElementLosses,
) -> BandpassDesign {
    check_bandpass_args(f0, bandwidth, z0, order);
    assert!(order % 2 == 1, "image-reject design needs an odd order");
    let (f_lo, f_hi) = (
        f0.hertz() - bandwidth.hertz() / 2.0,
        f0.hertz() + bandwidth.hertz() / 2.0,
    );
    assert!(
        f_zero.hertz() < f_lo || f_zero.hertz() > f_hi,
        "transmission zero must lie outside the passband"
    );

    let g = chebyshev_g(order, ripple_db);
    let w0 = f0.angular();
    let wz = f_zero.angular();
    let delta = bandwidth.hertz() / f0.hertz();
    let detune = 1.0 - (wz * wz) / (w0 * w0); // >0 for a zero below band

    let mut branches = Vec::with_capacity(order);
    for (k, &gk) in g.iter().enumerate() {
        if k == 0 {
            // Shunt resonator with trap: C2 ∥ (L1 + C1).
            let c2 = Capacitance::new(gk / (delta * z0 * w0));
            let l_eff = delta * z0 / (gk * w0);
            let l1 = Inductance::new(l_eff / detune);
            let c1 = Capacitance::new(1.0 / (wz * wz * l1.henries()));
            branches.push(Branch::Shunt(Immittance::parallel(vec![
                Immittance::capacitor(c2, losses.capacitor),
                Immittance::series(vec![
                    Immittance::inductor(l1, losses.inductor),
                    Immittance::capacitor(c1, losses.capacitor),
                ]),
            ])));
        } else if k % 2 == 0 {
            // Plain shunt parallel resonator.
            let c = Capacitance::new(gk / (delta * z0 * w0));
            let l = Inductance::new(delta * z0 / (gk * w0));
            branches.push(Branch::Shunt(Immittance::parallel(vec![
                Immittance::capacitor(c, losses.capacitor),
                Immittance::inductor(l, losses.inductor),
            ])));
        } else {
            let l = Inductance::new(gk * z0 / (delta * w0));
            let c = Capacitance::new(delta / (gk * z0 * w0));
            branches.push(Branch::Series(Immittance::series(vec![
                Immittance::inductor(l, losses.inductor),
                Immittance::capacitor(c, losses.capacitor),
            ])));
        }
    }
    let ladder = Ladder::new(branches, z0, z0);
    BandpassDesign {
        ladder,
        f0,
        bandwidth,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twoport::linspace;

    fn ghz(v: f64) -> Frequency {
        Frequency::from_giga(v)
    }

    fn mhz(v: f64) -> Frequency {
        Frequency::from_mega(v)
    }

    #[test]
    fn lossless_chebyshev_respects_ripple() {
        let d = bandpass(
            3,
            Approximation::Chebyshev { ripple_db: 0.5 },
            mhz(175.0),
            mhz(20.0),
            50.0,
            ElementLosses::default(),
        );
        // Inside the band the loss never exceeds the ripple (plus margin
        // for numerics). The LP→BP transform maps the band edges to
        // geometrically symmetric points: f·(√(1+(Δ/2)²) ± Δ/2).
        let f0 = 175.0e6;
        let delta: f64 = 20.0 / 175.0;
        let scale = (1.0 + delta * delta / 4.0).sqrt();
        let lo = Frequency::new(f0 * (scale - delta / 2.0));
        let hi = Frequency::new(f0 * (scale + delta / 2.0));
        for f in linspace(lo, hi, 41) {
            let il = d.ladder().insertion_loss_db(f);
            assert!(il < 0.55, "{il} dB at {f}");
        }
    }

    #[test]
    fn bandpass_is_geometric_symmetric() {
        // The LP→BP transform is symmetric about f0 in geometric frequency.
        let d = bandpass(
            2,
            Approximation::Chebyshev { ripple_db: 0.5 },
            mhz(175.0),
            mhz(20.0),
            50.0,
            ElementLosses::default(),
        );
        let f0 = 175.0e6;
        let factor = 1.3;
        let il_up = d.ladder().insertion_loss_db(Frequency::new(f0 * factor));
        let il_dn = d.ladder().insertion_loss_db(Frequency::new(f0 / factor));
        assert!((il_up - il_dn).abs() < 0.05, "{il_up} vs {il_dn}");
    }

    #[test]
    fn finite_q_creates_midband_loss_matching_cohn_estimate() {
        let q_l = 12.0;
        let q_c = 95.0;
        let d = bandpass(
            2,
            Approximation::Chebyshev { ripple_db: 0.5 },
            mhz(175.0),
            mhz(20.0),
            50.0,
            ElementLosses::q(q_l, q_c),
        );
        let measured = d.ladder().insertion_loss_db(mhz(175.0));
        // Cohn: ΔIL ≈ 4.343 · Σgᵢ / (FBW · Qu), with 1/Qu = 1/Q_L + 1/Q_C.
        let qu = 1.0 / (1.0 / q_l + 1.0 / q_c);
        let g: f64 = chebyshev_g(2, 0.5).iter().sum();
        let estimate = 4.343 * g / (20.0 / 175.0 * qu);
        assert!(
            (measured - estimate).abs() < 0.25 * estimate,
            "measured {measured} vs Cohn estimate {estimate}"
        );
    }

    #[test]
    fn butterworth_bandpass_works_too() {
        let d = bandpass(
            3,
            Approximation::Butterworth,
            ghz(1.0),
            mhz(200.0),
            50.0,
            ElementLosses::default(),
        );
        assert!(d.ladder().insertion_loss_db(ghz(1.0)) < 0.01);
        assert!(d.ladder().insertion_loss_db(ghz(2.0)) > 30.0);
        assert_eq!(d.order(), 3);
    }

    #[test]
    fn even_order_gets_mismatched_load() {
        let d = bandpass(
            2,
            Approximation::Chebyshev { ripple_db: 0.5 },
            mhz(175.0),
            mhz(20.0),
            50.0,
            ElementLosses::default(),
        );
        assert!((d.ladder().load_ohms() - 50.0 * 1.9841).abs() < 0.1);
    }

    #[test]
    fn image_reject_zero_is_deep_and_passband_clean() {
        let d = image_reject_bandpass(
            3,
            0.2,
            ghz(1.575),
            ghz(1.225),
            mhz(470.0),
            50.0,
            ElementLosses::default(),
        );
        assert!(d.ladder().insertion_loss_db(ghz(1.225)) > 40.0);
        assert!(d.ladder().insertion_loss_db(ghz(1.575)) < 0.5);
        // The zero really is a *finite* transmission zero: rejection at the
        // image exceeds rejection a bit further down.
        let deeper = d.ladder().insertion_loss_db(ghz(1.1));
        assert!(d.ladder().insertion_loss_db(ghz(1.225)) > deeper);
    }

    #[test]
    fn image_reject_with_summit_losses_matches_paper_3db() {
        // §4.1: the integrated LNA output filter "has losses of 3 dB at
        // the GPS signal frequency". SUMMIT-class spirals reach Q ≈ 25 at
        // 1.575 GHz with widened lines ([3]: "High Q Inductors for
        // MCM-Si"); the high-κ capacitors sit near Q ≈ 80.
        let d = image_reject_bandpass(
            3,
            0.2,
            ghz(1.575),
            ghz(1.225),
            mhz(470.0),
            50.0,
            ElementLosses::q(25.0, 80.0),
        );
        let il = d.ladder().insertion_loss_db(ghz(1.575));
        assert!((2.0..4.5).contains(&il), "passband loss {il} dB");
        let rej = d.ladder().insertion_loss_db(ghz(1.225));
        assert!(rej > 20.0, "image rejection {rej} dB");
    }

    #[test]
    #[should_panic(expected = "odd order")]
    fn image_reject_rejects_even_orders() {
        let _ = image_reject_bandpass(
            2,
            0.2,
            ghz(1.575),
            ghz(1.225),
            mhz(470.0),
            50.0,
            ElementLosses::default(),
        );
    }

    #[test]
    #[should_panic(expected = "outside the passband")]
    fn image_reject_zero_must_be_out_of_band() {
        let _ = image_reject_bandpass(
            3,
            0.2,
            ghz(1.575),
            ghz(1.5),
            mhz(470.0),
            50.0,
            ElementLosses::default(),
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn degenerate_bandwidth_rejected() {
        let _ = bandpass(
            2,
            Approximation::Butterworth,
            mhz(100.0),
            mhz(0.0),
            50.0,
            ElementLosses::default(),
        );
    }

    #[test]
    fn design_accessors() {
        let d = bandpass(
            2,
            Approximation::Chebyshev { ripple_db: 0.5 },
            mhz(175.0),
            mhz(20.0),
            50.0,
            ElementLosses::default(),
        );
        assert_eq!(d.center(), mhz(175.0));
        assert_eq!(d.bandwidth(), mhz(20.0));
        assert!(d.to_string().contains("bandpass"));
        assert_eq!(d.ladder().element_count(), 4);
    }
}
