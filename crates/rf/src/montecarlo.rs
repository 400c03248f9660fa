//! Monte Carlo tolerance analysis: what fraction of manufactured filters
//! meets the spec?
//!
//! Integrated passives ship with wide as-fabricated tolerances (±15 %
//! resistors, ±10…15 % capacitors). This module quantifies the resulting
//! *parametric yield*, complementing the deterministic §4.1 loss scoring.
//!
//! The sampling runs on the [`ipass_sim`] substrate: every filter
//! instance draws from its own counter-based stream, so results are
//! bit-identical for any executor thread count.

use crate::spec::FilterSpec;
use crate::twoport::Ladder;
use ipass_sim::{BinomialTally, Executor, Sampler, SimRng, Welford};

/// The outcome of a tolerance Monte Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct ToleranceYield {
    tally: BinomialTally,
    worst_passband_loss_db: f64,
    loss: Welford,
}

impl ToleranceYield {
    /// Number of sampled filter instances.
    pub fn samples(&self) -> usize {
        self.tally.trials() as usize
    }

    /// Instances meeting the full spec.
    pub fn passing(&self) -> usize {
        self.tally.successes() as usize
    }

    /// The parametric yield in `[0, 1]`.
    pub fn yield_fraction(&self) -> f64 {
        self.tally.fraction()
    }

    /// Worst sampled passband loss (dB).
    pub fn worst_passband_loss_db(&self) -> f64 {
        self.worst_passband_loss_db
    }

    /// Mean sampled passband loss (dB).
    pub fn mean_passband_loss_db(&self) -> f64 {
        self.loss.mean()
    }
}

/// Accumulator for the tolerance sampler.
#[derive(Debug)]
struct TolAcc {
    tally: BinomialTally,
    /// Worst passband loss so far (`−∞` when empty).
    worst: f64,
    loss: Welford,
}

struct TolSampler<'a, F> {
    spec: &'a FilterSpec,
    build: F,
}

impl<F> Sampler for TolSampler<'_, F>
where
    F: Fn(&mut SimRng) -> Ladder + Sync,
{
    type Acc = TolAcc;
    type Error = std::convert::Infallible;

    fn make_acc(&self) -> TolAcc {
        TolAcc {
            tally: BinomialTally::new(),
            worst: f64::NEG_INFINITY,
            loss: Welford::new(),
        }
    }

    fn sample(&self, _unit: u64, rng: &mut SimRng, acc: &mut TolAcc) -> Result<(), Self::Error> {
        let ladder = (self.build)(rng);
        let report = self.spec.evaluate(&ladder);
        acc.tally.push(report.meets_spec());
        acc.worst = acc.worst.max(report.passband_loss_db());
        acc.loss.push(report.passband_loss_db());
        Ok(())
    }

    fn merge(&self, into: &mut TolAcc, from: TolAcc) {
        into.tally.merge(&from.tally);
        into.worst = into.worst.max(from.worst);
        into.loss.merge(&from.loss);
    }
}

/// Sample `n` filter instances from `build` (a closure that constructs a
/// ladder with component values drawn from their tolerance
/// distributions) and evaluate each against `spec`.
///
/// Each instance draws from its own deterministic stream of `seed`;
/// [`tolerance_yield_with`] runs the identical computation on a
/// multi-thread executor with bit-identical results.
///
/// # Panics
///
/// Panics when `n` is zero.
///
/// # Examples
///
/// ```
/// use ipass_rf::{tolerance_yield, Branch, FilterSpec, Immittance, Ladder, Loss};
/// use ipass_passives::Tolerance;
/// use ipass_units::{Capacitance, Frequency};
///
/// // A shunt-C low-pass whose capacitor varies ±15 %.
/// let spec = FilterSpec::new("lp", Frequency::from_mega(10.0), 1.0);
/// let result = tolerance_yield(
///     &spec,
///     500,
///     42,
///     |rng| {
///         let c = Tolerance::percent(15.0).sample_normal(100e-12, rng);
///         Ladder::new(
///             vec![Branch::Shunt(Immittance::capacitor(
///                 Capacitance::new(c),
///                 Loss::Ideal,
///             ))],
///             50.0,
///             50.0,
///         )
///     },
/// );
/// assert!(result.yield_fraction() > 0.9);
/// ```
pub fn tolerance_yield<F>(spec: &FilterSpec, n: usize, seed: u64, build: F) -> ToleranceYield
where
    F: Fn(&mut SimRng) -> Ladder + Sync,
{
    tolerance_yield_with(spec, n, seed, &Executor::serial(), build)
}

/// [`tolerance_yield`] on an explicit executor; the thread count is a
/// pure performance knob (results are bit-identical).
///
/// # Panics
///
/// Panics when `n` is zero.
pub fn tolerance_yield_with<F>(
    spec: &FilterSpec,
    n: usize,
    seed: u64,
    executor: &Executor,
    build: F,
) -> ToleranceYield
where
    F: Fn(&mut SimRng) -> Ladder + Sync,
{
    assert!(n > 0, "need at least one sample");
    let sampler = TolSampler { spec, build };
    let acc = match executor.run(&sampler, n as u64, seed) {
        Ok(acc) => acc,
        Err(e) => match e {},
    };
    ToleranceYield {
        tally: acc.tally,
        worst_passband_loss_db: acc.worst,
        loss: acc.loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{bandpass, Approximation, ElementLosses};
    use crate::elements::Immittance;
    use crate::twoport::Branch;
    use ipass_passives::Tolerance;
    use ipass_units::{Capacitance, Frequency, Inductance};

    fn mhz(v: f64) -> Frequency {
        Frequency::from_mega(v)
    }

    fn toleranced_if_filter(
        rng: &mut SimRng,
        tol_l: Tolerance,
        tol_c: Tolerance,
        q_l: f64,
        q_c: f64,
    ) -> Ladder {
        // Start from the nominal design and perturb each element.
        let nominal = bandpass(
            2,
            Approximation::Chebyshev { ripple_db: 0.5 },
            mhz(175.0),
            mhz(20.0),
            50.0,
            ElementLosses::q(q_l, q_c),
        );
        let branches = nominal
            .ladder()
            .branches()
            .iter()
            .map(|b| perturb_branch(b, rng, tol_l, tol_c))
            .collect();
        Ladder::new(
            branches,
            nominal.ladder().source_ohms(),
            nominal.ladder().load_ohms(),
        )
    }

    fn perturb_branch(
        branch: &Branch,
        rng: &mut SimRng,
        tol_l: Tolerance,
        tol_c: Tolerance,
    ) -> Branch {
        match branch {
            Branch::Series(imm) => Branch::Series(perturb(imm, rng, tol_l, tol_c)),
            Branch::Shunt(imm) => Branch::Shunt(perturb(imm, rng, tol_l, tol_c)),
        }
    }

    fn perturb(
        imm: &Immittance,
        rng: &mut SimRng,
        tol_l: Tolerance,
        tol_c: Tolerance,
    ) -> Immittance {
        match imm {
            Immittance::Inductor { henries, loss } => Immittance::Inductor {
                henries: Inductance::new(tol_l.sample_normal(henries.henries(), rng)),
                loss: *loss,
            },
            Immittance::Capacitor { farads, loss } => Immittance::Capacitor {
                farads: Capacitance::new(tol_c.sample_normal(farads.farads(), rng)),
                loss: *loss,
            },
            Immittance::Resistor(r) => Immittance::Resistor(*r),
            Immittance::Series(parts) => Immittance::Series(
                parts
                    .iter()
                    .map(|p| perturb(p, rng, tol_l, tol_c))
                    .collect(),
            ),
            Immittance::Parallel(parts) => Immittance::Parallel(
                parts
                    .iter()
                    .map(|p| perturb(p, rng, tol_l, tol_c))
                    .collect(),
            ),
        }
    }

    #[test]
    fn tight_tolerances_yield_everything() {
        let spec = FilterSpec::new("IF", mhz(175.0), 3.0);
        let result = tolerance_yield(&spec, 300, 1, |rng| {
            toleranced_if_filter(
                rng,
                Tolerance::percent(2.0),
                Tolerance::percent(2.0),
                45.0,
                200.0,
            )
        });
        assert!(
            result.yield_fraction() > 0.97,
            "{}",
            result.yield_fraction()
        );
        assert_eq!(result.samples(), 300);
    }

    #[test]
    fn wide_tolerances_cost_yield() {
        // Same electrical design (SMD-quality Q, comfortably in spec at
        // nominal), but IP-class value tolerances: detuning pushes a
        // visible fraction of instances over the loss budget.
        let spec = FilterSpec::new("IF", mhz(175.0), 3.0);
        let tight = tolerance_yield(&spec, 400, 2, |rng| {
            toleranced_if_filter(
                rng,
                Tolerance::percent(2.0),
                Tolerance::percent(2.0),
                45.0,
                200.0,
            )
        });
        let wide = tolerance_yield(&spec, 400, 2, |rng| {
            toleranced_if_filter(
                rng,
                Tolerance::percent(5.0),
                Tolerance::percent(15.0),
                45.0,
                200.0,
            )
        });
        assert!(
            tight.yield_fraction() > 0.9,
            "tight {}",
            tight.yield_fraction()
        );
        assert!(
            wide.yield_fraction() < tight.yield_fraction(),
            "wide {} vs tight {}",
            wide.yield_fraction(),
            tight.yield_fraction()
        );
        assert!(wide.worst_passband_loss_db() > tight.worst_passband_loss_db());
    }

    #[test]
    fn statistics_are_consistent() {
        let spec = FilterSpec::new("IF", mhz(175.0), 3.0);
        let r = tolerance_yield(&spec, 100, 3, |rng| {
            toleranced_if_filter(
                rng,
                Tolerance::percent(5.0),
                Tolerance::percent(10.0),
                25.0,
                95.0,
            )
        });
        assert!(r.mean_passband_loss_db() <= r.worst_passband_loss_db());
        assert!(r.passing() <= r.samples());
        assert!((0.0..=1.0).contains(&r.yield_fraction()));
    }

    #[test]
    fn same_seed_reproduces() {
        let spec = FilterSpec::new("IF", mhz(175.0), 3.0);
        let build = |rng: &mut SimRng| {
            toleranced_if_filter(
                rng,
                Tolerance::percent(10.0),
                Tolerance::percent(10.0),
                25.0,
                95.0,
            )
        };
        let a = tolerance_yield(&spec, 200, 7, build);
        let b = tolerance_yield(&spec, 200, 7, build);
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_is_a_pure_performance_knob() {
        let spec = FilterSpec::new("IF", mhz(175.0), 3.0);
        let build = |rng: &mut SimRng| {
            toleranced_if_filter(
                rng,
                Tolerance::percent(10.0),
                Tolerance::percent(10.0),
                25.0,
                95.0,
            )
        };
        let serial = tolerance_yield_with(&spec, 600, 7, &Executor::new(1), build);
        let parallel = tolerance_yield_with(&spec, 600, 7, &Executor::new(8), build);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let spec = FilterSpec::new("IF", mhz(175.0), 3.0);
        let _ = tolerance_yield(&spec, 0, 1, |_| Ladder::new(vec![], 50.0, 50.0));
    }
}
