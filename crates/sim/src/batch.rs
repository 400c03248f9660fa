//! Batched sampling: evaluate a contiguous range of units per call
//! instead of one unit at a time.
//!
//! [`BatchSampler`] is the executor's native interface: the chunked
//! [`Executor`](crate::Executor) hands each worker a contiguous
//! `[lo, hi)` unit range and the sampler decides how to walk it. A
//! plain [`Sampler`] gets the scalar walk for free through the blanket
//! impl (one [`SimRng::stream`] per unit, in unit order), while batched
//! kernels — such as the MOE lane kernel — override the walk with a
//! structure-of-arrays lane evaluation. As long as an implementation
//! preserves the per-unit draw and accumulation order, its results are
//! bit-identical to the scalar walk for every chunk split the executor
//! chooses.

use crate::exec::Sampler;
use crate::rng::SimRng;

/// A Monte Carlo experiment that evaluates a contiguous range of units
/// per call — the batched form of [`Sampler`].
///
/// # The batching contract
///
/// The executor's determinism guarantees extend unchanged to batched
/// samplers because chunk geometry stays a pure function of the unit
/// count and each chunk is exactly one `sample_range` call, merged in
/// chunk order. An implementation must therefore be *range-splitting
/// invariant*: for any partition of `[lo, hi)` into consecutive
/// sub-ranges, accumulating the sub-ranges in order must produce the
/// same accumulator contents — bit for bit — as one call over the whole
/// range, and the same contents a scalar unit-by-unit walk would
/// produce (unit `i` draws from `SimRng::stream(seed, i)` and
/// contributes in unit order).
///
/// On error, everything accumulated into `acc` by the failing call is
/// discarded by the executor, and the first error in unit order wins.
pub trait BatchSampler: Sync {
    /// Partial result accumulated per chunk and merged across chunks.
    type Acc: Send;
    /// Error that aborts the run (the first error in unit order wins).
    type Error: Send;

    /// Create an empty accumulator.
    fn make_acc(&self) -> Self::Acc;

    /// Route every unit of `[lo, hi)`, recording outcomes into `acc`.
    /// Unit `i` must draw from `SimRng::stream(seed, i)`.
    ///
    /// # Errors
    ///
    /// Returns the sampler's error to abort the run.
    fn sample_range(
        &self,
        seed: u64,
        lo: u64,
        hi: u64,
        acc: &mut Self::Acc,
    ) -> Result<(), Self::Error>;

    /// Fold a later chunk's accumulator into an earlier one.
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);

    /// Current confidence-interval half width of the quantity an early
    /// stopping rule targets, or `None` when the sampler does not
    /// support early stopping.
    fn ci_half_width(&self, acc: &Self::Acc, z: f64) -> Option<f64> {
        let _ = (acc, z);
        None
    }
}

/// Every scalar [`Sampler`] is a [`BatchSampler`] via the canonical
/// unit-by-unit walk: one counter-based stream per unit, in unit order.
impl<S: Sampler> BatchSampler for S {
    type Acc = S::Acc;
    type Error = S::Error;

    fn make_acc(&self) -> Self::Acc {
        Sampler::make_acc(self)
    }

    fn sample_range(
        &self,
        seed: u64,
        lo: u64,
        hi: u64,
        acc: &mut Self::Acc,
    ) -> Result<(), Self::Error> {
        for unit in lo..hi {
            let mut rng = SimRng::stream(seed, unit);
            self.sample(unit, &mut rng, acc)?;
        }
        Ok(())
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        Sampler::merge(self, into, from)
    }

    fn ci_half_width(&self, acc: &Self::Acc, z: f64) -> Option<f64> {
        Sampler::ci_half_width(self, acc, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::stats::BinomialTally;

    struct Coin {
        p: f64,
    }

    impl Sampler for Coin {
        type Acc = BinomialTally;
        type Error = std::convert::Infallible;

        fn make_acc(&self) -> BinomialTally {
            BinomialTally::new()
        }

        fn sample(
            &self,
            _unit: u64,
            rng: &mut SimRng,
            acc: &mut BinomialTally,
        ) -> Result<(), Self::Error> {
            acc.push(rng.bernoulli(self.p));
            Ok(())
        }

        fn merge(&self, into: &mut BinomialTally, from: BinomialTally) {
            into.merge(&from);
        }
    }

    /// A genuinely batched sampler: sums the first draw of every unit
    /// stream over the whole range in one loop.
    struct RangeSum;

    impl BatchSampler for RangeSum {
        type Acc = u64;
        type Error = std::convert::Infallible;

        fn make_acc(&self) -> u64 {
            0
        }

        fn sample_range(
            &self,
            seed: u64,
            lo: u64,
            hi: u64,
            acc: &mut u64,
        ) -> Result<(), Self::Error> {
            for unit in lo..hi {
                *acc = acc.wrapping_add(SimRng::stream(seed, unit).next_u64() & 0xFF);
            }
            Ok(())
        }

        fn merge(&self, into: &mut u64, from: u64) {
            *into = into.wrapping_add(from);
        }
    }

    #[test]
    fn blanket_impl_walks_units_in_order() {
        let coin = Coin { p: 0.4 };
        // The batched walk over one range must equal the scalar walk the
        // executor performed before batching existed.
        let mut batched = BatchSampler::make_acc(&coin);
        coin.sample_range(7, 0, 10_000, &mut batched).unwrap();
        let mut scalar = Sampler::make_acc(&coin);
        for unit in 0..10_000 {
            let mut rng = SimRng::stream(7, unit);
            coin.sample(unit, &mut rng, &mut scalar).unwrap();
        }
        assert_eq!(batched, scalar);
    }

    #[test]
    fn custom_batch_sampler_is_split_invariant() {
        let whole = Executor::new(1).run(&RangeSum, 100_000, 3).unwrap();
        for threads in [2, 8] {
            let split = Executor::new(threads).run(&RangeSum, 100_000, 3).unwrap();
            assert_eq!(split, whole, "threads = {threads}");
        }
        // And against the hand-rolled single range.
        let mut manual = 0u64;
        RangeSum.sample_range(3, 0, 100_000, &mut manual).unwrap();
        assert_eq!(whole, manual);
    }
}
