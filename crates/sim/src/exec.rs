//! The chunked, deterministic, parallel experiment executor.
//!
//! Units are partitioned into fixed-size chunks (a pure function of the
//! unit count, never of the thread count). A fixed pool of scoped
//! workers steals chunks from a shared cursor and accumulates each
//! chunk into its own local accumulator — workers never share mutable
//! fold state and never block on one another. Completed chunks are
//! published as `(index, accumulator)` completion records over a
//! channel, and the *calling* thread folds them into a running prefix
//! strictly in chunk order. Because every unit draws from its own
//! counter-based [`SimRng`] stream and the floating-point merge order
//! is fixed, the result is bit-identical for any thread count — threads
//! are purely a performance knob.
//!
//! Every run is a [`BatchSampler`] run: a chunk is one
//! contiguous `[lo, hi)` unit range handed to
//! [`BatchSampler::sample_range`]. Scalar [`Sampler`]s get the
//! canonical unit-by-unit walk through the blanket impl in
//! [`crate::batch`]; batched kernels substitute their own lane walk
//! without touching the chunk geometry or the fold order.
//!
//! Optional sequential early stopping evaluates a confidence-interval
//! rule at every prefix extension (again in chunk order), so the
//! stopping point is a pure function of the data, not of scheduling.
//!
//! [`Executor::try_map`] folds on the same path, but its blocks follow
//! the thread count: appending mapped items has no floating-point merge
//! whose order could move a result.

use crate::batch::BatchSampler;
use crate::rng::SimRng;
use ipass_obs::Profiler;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// A Monte Carlo experiment that accumulates directly into a mergeable
/// accumulator (the zero-allocation form used by hot engines).
///
/// Implementations must be deterministic: `sample` may use only `unit`,
/// the provided RNG stream and `&self`.
pub trait Sampler: Sync {
    /// Partial result accumulated per chunk and merged across chunks.
    type Acc: Send;
    /// Error that aborts the run (the first error in unit order wins).
    type Error: Send;

    /// Create an empty accumulator.
    fn make_acc(&self) -> Self::Acc;

    /// Route one unit, recording its outcome into `acc`.
    ///
    /// # Errors
    ///
    /// Returns the sampler's error to abort the run.
    fn sample(&self, unit: u64, rng: &mut SimRng, acc: &mut Self::Acc) -> Result<(), Self::Error>;

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

/// Sequential early-stopping rule: stop once the sampler's confidence
/// interval is tight enough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Target half width of the confidence interval.
    pub target_half_width: f64,
    /// z value of the interval (e.g. [`crate::Z95`]).
    pub z: f64,
    /// Never stop before this many units (guards against a lucky first
    /// chunk).
    pub min_units: u64,
}

impl StopRule {
    /// A 95 % rule with the given half-width target and a 1 000-unit
    /// floor.
    pub fn half_width_95(target: f64) -> StopRule {
        StopRule {
            target_half_width: target,
            z: crate::stats::Z95,
            min_units: 1_000,
        }
    }
}

/// Options for [`Executor::run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunOptions {
    /// Optional early-stopping rule.
    pub stop: Option<StopRule>,
}

/// The outcome of an executor run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome<A> {
    /// The merged accumulator over all units that were run.
    pub acc: A,
    /// Units actually routed (less than requested when stopped early).
    pub units_run: u64,
    /// Whether the early-stopping rule fired.
    pub stopped_early: bool,
}

/// Three closures as a [`Sampler`], so that [`Executor::try_map_reduce`]
/// and [`Executor::try_map`] inherit the in-order fold and the first
/// error in unit order (the per-unit RNG stream is created but unused).
struct Fold<FInit, FStep, FMerge> {
    init: FInit,
    step: FStep,
    merge: FMerge,
}

impl<A, E, FInit, FStep, FMerge> Sampler for Fold<FInit, FStep, FMerge>
where
    A: Send,
    E: Send,
    FInit: Fn() -> A + Sync,
    FStep: Fn(u64, &mut A) -> Result<(), E> + Sync,
    FMerge: Fn(&mut A, A) + Sync,
{
    type Acc = A;
    type Error = E;

    fn make_acc(&self) -> A {
        (self.init)()
    }

    fn sample(&self, unit: u64, _rng: &mut SimRng, acc: &mut A) -> Result<(), E> {
        (self.step)(unit, acc)
    }

    fn merge(&self, into: &mut A, from: A) {
        (self.merge)(into, from)
    }
}

/// Fixed chunk geometry: a pure function of the unit count so that the
/// floating-point merge order — and therefore every result — is
/// independent of the thread count.
fn chunk_size(units: u64) -> u64 {
    (units / 64).clamp(256, 16_384).min(units.max(1))
}

/// The deterministic parallel executor.
///
/// # Examples
///
/// ```
/// use ipass_sim::{BinomialTally, Executor, Sampler, SimRng};
///
/// /// Darts that land inside the unit quarter circle.
/// struct Pi;
/// impl Sampler for Pi {
///     type Acc = BinomialTally;
///     type Error = std::convert::Infallible;
///     fn make_acc(&self) -> BinomialTally {
///         BinomialTally::new()
///     }
///     fn sample(&self, _unit: u64, rng: &mut SimRng, acc: &mut BinomialTally)
///         -> Result<(), Self::Error>
///     {
///         let (x, y) = (rng.next_f64(), rng.next_f64());
///         acc.push(x * x + y * y <= 1.0);
///         Ok(())
///     }
///     fn merge(&self, into: &mut BinomialTally, from: BinomialTally) {
///         into.merge(&from);
///     }
/// }
///
/// let hits = |threads| Executor::new(threads).run(&Pi, 100_000, 7).unwrap();
/// let serial = hits(1);
/// assert_eq!(serial, hits(4)); // bit-identical regardless of threads
/// let pi = 4.0 * serial.fraction();
/// assert!((pi - std::f64::consts::PI).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::serial()
    }
}

impl Executor {
    /// An executor with a fixed worker pool of `threads` (minimum 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// A single-threaded executor (same results, no worker pool).
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// An executor sized to the machine's available parallelism.
    pub fn available() -> Executor {
        Executor::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Run `units` units of `sampler` under `seed` and return the merged
    /// accumulator. Scalar [`Sampler`]s run here too, through the
    /// blanket [`BatchSampler`] impl.
    ///
    /// # Errors
    ///
    /// Returns the first sampler error in unit order.
    pub fn run<B: BatchSampler>(
        &self,
        sampler: &B,
        units: u64,
        seed: u64,
    ) -> Result<B::Acc, B::Error> {
        self.run_with(sampler, units, seed, &RunOptions::default())
            .map(|outcome| outcome.acc)
    }

    /// Like [`Executor::run`], with early stopping and run metadata.
    /// Every chunk is one contiguous [`BatchSampler::sample_range`]
    /// call; chunk geometry stays a pure function of `units`, so a
    /// batched kernel inherits the full determinism contract.
    ///
    /// # Errors
    ///
    /// Returns the first sampler error in unit order.
    pub fn run_with<B: BatchSampler>(
        &self,
        sampler: &B,
        units: u64,
        seed: u64,
        options: &RunOptions,
    ) -> Result<RunOutcome<B::Acc>, B::Error> {
        self.run_inner(sampler, units, seed, chunk_size(units), options, None)
    }

    /// Like [`Executor::run_with`], recording wall-clock spans into
    /// `profiler`: one `"chunk"` span per completed chunk. Timing lives
    /// entirely in the wall-clock plane — the accumulator (and any
    /// deterministic counters folded inside it) is bit-identical to the
    /// untraced run.
    ///
    /// # Errors
    ///
    /// Returns the first sampler error in unit order.
    pub fn run_traced<B: BatchSampler>(
        &self,
        sampler: &B,
        units: u64,
        seed: u64,
        options: &RunOptions,
        profiler: &Profiler,
    ) -> Result<RunOutcome<B::Acc>, B::Error> {
        let chunk = chunk_size(units);
        self.run_inner(sampler, units, seed, chunk, options, Some(profiler))
    }

    /// The chunked fold every entry point runs on, `chunk` units a chunk.
    fn run_inner<B: BatchSampler>(
        &self,
        sampler: &B,
        units: u64,
        seed: u64,
        chunk: u64,
        options: &RunOptions,
        profiler: Option<&Profiler>,
    ) -> Result<RunOutcome<B::Acc>, B::Error> {
        if units == 0 {
            return Ok(RunOutcome {
                acc: sampler.make_acc(),
                units_run: 0,
                stopped_early: false,
            });
        }
        let n_chunks = units.div_ceil(chunk);
        let workers = self.threads.min(n_chunks as usize);
        if workers <= 1 {
            return run_serial(sampler, units, seed, chunk, options, profiler);
        }
        run_parallel(
            sampler, units, seed, chunk, n_chunks, workers, options, profiler,
        )
    }

    /// Chunked map-reduce over unit indices `0..units` — the fan-out
    /// shape samplers and design-space screens use when they only need
    /// a *reduced* result (a frontier, a tally, an extreme) and the
    /// per-unit outputs would not fit or are not wanted.
    ///
    /// Units are split into the same fixed-size chunks as
    /// [`Executor::run`] (a pure function of `units`, never of the
    /// thread count); each chunk folds into its own accumulator via
    /// `step`, and chunk accumulators merge **in chunk order** on the
    /// calling thread via `merge` — so the result is bit-identical for
    /// any thread count whenever `merge` is associative over ordered
    /// concatenation (which in-order merging guarantees for every
    /// accumulator in this crate).
    ///
    /// # Errors
    ///
    /// Returns the first `step` error in unit order.
    ///
    /// # Examples
    ///
    /// ```
    /// use ipass_sim::Executor;
    ///
    /// // Sum of squares, reduced without materializing 1M outputs.
    /// let sum = |threads: usize| {
    ///     Executor::new(threads)
    ///         .try_map_reduce(
    ///             1_000_000,
    ///             || 0u64,
    ///             |unit, acc| {
    ///                 *acc += unit * unit;
    ///                 Ok::<(), std::convert::Infallible>(())
    ///             },
    ///             |into, from| *into += from,
    ///         )
    ///         .unwrap()
    /// };
    /// assert_eq!(sum(1), sum(8)); // bit-identical regardless of threads
    /// ```
    pub fn try_map_reduce<A, E, FInit, FStep, FMerge>(
        &self,
        units: u64,
        init: FInit,
        step: FStep,
        merge: FMerge,
    ) -> Result<A, E>
    where
        A: Send,
        E: Send,
        FInit: Fn() -> A + Sync,
        FStep: Fn(u64, &mut A) -> Result<(), E> + Sync,
        FMerge: Fn(&mut A, A) + Sync,
    {
        self.run(&Fold { init, step, merge }, units, 0)
    }

    /// Evaluate `f` over every item of a batch in parallel, preserving
    /// order. On failure the error of the smallest index is returned —
    /// deterministically, matching a serial evaluation: items after the
    /// lowest failing index may be skipped, but everything before it is
    /// always evaluated.
    ///
    /// Runs on the chunked fold of [`Executor::run`]: each block of
    /// items maps into a local `Vec`, appended in block order. With no
    /// floating-point merge to keep in order, blocks follow the thread
    /// count (about eight per worker), so even a four-item batch fans
    /// out over every worker.
    ///
    /// # Errors
    ///
    /// Returns the first error in item order.
    pub fn try_map<T, O, E, F>(&self, items: &[T], f: F) -> Result<Vec<O>, E>
    where
        T: Sync,
        O: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<O, E> + Sync,
    {
        let units = items.len() as u64;
        let block = units
            .div_ceil((self.threads as u64).saturating_mul(8))
            .max(1);
        let blocks = Fold {
            init: Vec::new,
            step: |unit, acc: &mut Vec<O>| {
                let i = unit as usize;
                acc.push(f(i, &items[i])?);
                Ok(())
            },
            // Only the prefix is merged into: size it once for the batch.
            merge: |into: &mut Vec<O>, mut from: Vec<O>| {
                into.reserve_exact(items.len() - into.len());
                into.append(&mut from);
            },
        };
        self.run_inner(&blocks, units, 0, block, &RunOptions::default(), None)
            .map(|outcome| outcome.acc)
    }
}

/// Route one chunk of units: a single contiguous range call on the
/// batch sampler (the blanket impl walks it unit by unit). When a
/// profiler is attached, the chunk's wall-clock time is recorded under
/// the `"chunk"` span — outside the accumulator, so tracing never
/// perturbs results.
fn run_chunk<B: BatchSampler>(
    sampler: &B,
    seed: u64,
    lo: u64,
    hi: u64,
    profiler: Option<&Profiler>,
) -> Result<B::Acc, B::Error> {
    let start = profiler.map(|_| Instant::now());
    let mut acc = sampler.make_acc();
    sampler.sample_range(seed, lo, hi, &mut acc)?;
    if let (Some(p), Some(t0)) = (profiler, start) {
        p.record(
            "chunk",
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
    }
    Ok(acc)
}

fn stop_rule_met<B: BatchSampler>(
    sampler: &B,
    acc: &B::Acc,
    units_so_far: u64,
    rule: &StopRule,
) -> bool {
    units_so_far >= rule.min_units
        && sampler
            .ci_half_width(acc, rule.z)
            .is_some_and(|hw| hw <= rule.target_half_width)
}

fn run_serial<B: BatchSampler>(
    sampler: &B,
    units: u64,
    seed: u64,
    chunk: u64,
    options: &RunOptions,
    profiler: Option<&Profiler>,
) -> Result<RunOutcome<B::Acc>, B::Error> {
    let mut prefix = sampler.make_acc();
    let mut lo = 0;
    while lo < units {
        let hi = (lo + chunk).min(units);
        let part = run_chunk(sampler, seed, lo, hi, profiler)?;
        sampler.merge(&mut prefix, part);
        lo = hi;
        if let Some(rule) = &options.stop {
            if stop_rule_met(sampler, &prefix, lo, rule) {
                return Ok(RunOutcome {
                    acc: prefix,
                    units_run: lo,
                    stopped_early: true,
                });
            }
        }
    }
    Ok(RunOutcome {
        acc: prefix,
        units_run: units,
        stopped_early: false,
    })
}

/// The parallel run: workers accumulate chunks locally and publish
/// `(chunk index, accumulator)` completion records over a channel; the
/// calling thread folds records into the prefix strictly in chunk
/// order. No shared fold state, no lock a worker could serialize on —
/// the only synchronization is the lock-free channel send per
/// completed chunk.
#[allow(clippy::too_many_arguments)]
fn run_parallel<B: BatchSampler>(
    sampler: &B,
    units: u64,
    seed: u64,
    chunk: u64,
    n_chunks: u64,
    workers: usize,
    options: &RunOptions,
    profiler: Option<&Profiler>,
) -> Result<RunOutcome<B::Acc>, B::Error> {
    let cursor = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(u64, Result<B::Acc, B::Error>)>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let done = &done;
            scope.spawn(move || loop {
                if done.load(Ordering::Acquire) {
                    break;
                }
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let lo = c * chunk;
                let hi = (lo + chunk).min(units);
                // All fold work stays worker-local; only the completion
                // record crosses threads.
                let record = run_chunk(sampler, seed, lo, hi, profiler);
                if tx.send((c, record)).is_err() {
                    break;
                }
            });
        }
        // Senders live only in the workers: the fold loop below ends
        // exactly when every worker has exited.
        drop(tx);

        // The in-order fold, on the calling thread. All determinism
        // lives here: records may arrive in any order, but they join
        // the prefix strictly by chunk index.
        let mut pending: Vec<Option<Result<B::Acc, B::Error>>> = Vec::new();
        pending.resize_with(n_chunks as usize, || None);
        let mut prefix = sampler.make_acc();
        let mut next: u64 = 0;
        let mut units_merged: u64 = 0;
        let mut stopped = false;
        let mut error: Option<B::Error> = None;
        while let Ok((c, record)) = rx.recv() {
            if stopped || error.is_some() {
                // The run is already decided; drain so workers finishing
                // in-flight chunks never block (record is discarded).
                continue;
            }
            pending[c as usize] = Some(record);
            while let Some(slot) = pending.get_mut(next as usize).and_then(Option::take) {
                match slot {
                    Ok(part) => {
                        sampler.merge(&mut prefix, part);
                        next += 1;
                        units_merged = (next * chunk).min(units);
                        if let Some(rule) = &options.stop {
                            if stop_rule_met(sampler, &prefix, units_merged, rule) {
                                stopped = true;
                                done.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                    Err(e) => {
                        // First error in chunk order — identical to the
                        // serial run, because the prefix only advances
                        // through contiguous successes.
                        error = Some(e);
                        done.store(true, Ordering::Release);
                        break;
                    }
                }
            }
            if next >= n_chunks {
                done.store(true, Ordering::Release);
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        Ok(RunOutcome {
            acc: prefix,
            units_run: units_merged,
            stopped_early: stopped,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{BinomialTally, Z95};

    /// Counts heads of a biased coin; supports early stopping.
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

        fn ci_half_width(&self, acc: &BinomialTally, z: f64) -> Option<f64> {
            Some(acc.wilson_half_width(z))
        }
    }

    struct FailAt(u64);

    impl Sampler for FailAt {
        type Acc = u64;
        type Error = u64;

        fn make_acc(&self) -> u64 {
            0
        }

        fn sample(&self, unit: u64, _rng: &mut SimRng, acc: &mut u64) -> Result<(), u64> {
            if unit >= self.0 {
                return Err(unit);
            }
            *acc += 1;
            Ok(())
        }

        fn merge(&self, into: &mut u64, from: u64) {
            *into += from;
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let coin = Coin { p: 0.37 };
        let baseline = Executor::new(1).run(&coin, 50_000, 11).unwrap();
        for threads in [2, 4, 8] {
            let tally = Executor::new(threads).run(&coin, 50_000, 11).unwrap();
            assert_eq!(tally, baseline, "threads = {threads}");
        }
        assert!((baseline.fraction() - 0.37).abs() < 0.01);
    }

    #[test]
    fn zero_units_is_empty() {
        let outcome = Executor::new(4)
            .run_with(&Coin { p: 0.5 }, 0, 1, &RunOptions::default())
            .unwrap();
        assert_eq!(outcome.units_run, 0);
        assert_eq!(outcome.acc.trials(), 0);
        assert!(!outcome.stopped_early);
    }

    #[test]
    fn early_stopping_fires_and_is_deterministic() {
        let rule = StopRule {
            target_half_width: 0.01,
            z: Z95,
            min_units: 1_000,
        };
        let options = RunOptions { stop: Some(rule) };
        let a = Executor::new(1)
            .run_with(&Coin { p: 0.2 }, 1_000_000, 3, &options)
            .unwrap();
        assert!(a.stopped_early);
        assert!(a.units_run < 1_000_000, "ran {}", a.units_run);
        assert!(a.acc.wilson_half_width(Z95) <= 0.01);
        for threads in [2, 8] {
            let b = Executor::new(threads)
                .run_with(&Coin { p: 0.2 }, 1_000_000, 3, &options)
                .unwrap();
            assert_eq!(b.units_run, a.units_run);
            assert_eq!(b.acc, a.acc);
            assert!(b.stopped_early);
        }
    }

    #[test]
    fn early_stopping_respects_min_units() {
        let rule = StopRule {
            target_half_width: 1.0, // trivially satisfied
            z: Z95,
            min_units: 5_000,
        };
        let outcome = Executor::new(4)
            .run_with(
                &Coin { p: 0.5 },
                100_000,
                1,
                &RunOptions { stop: Some(rule) },
            )
            .unwrap();
        assert!(outcome.stopped_early);
        assert!(outcome.units_run >= 5_000);
    }

    #[test]
    fn first_error_in_unit_order_wins() {
        for threads in [1, 4] {
            let err = Executor::new(threads)
                .run(&FailAt(10_000), 100_000, 0)
                .unwrap_err();
            assert_eq!(err, 10_000, "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_is_thread_invariant_and_in_order() {
        // Non-commutative fold: the accumulator records unit order, so
        // any deviation from in-chunk-order merging would change it.
        let trace = |threads: usize| {
            Executor::new(threads)
                .try_map_reduce(
                    10_000,
                    Vec::new,
                    |unit, acc: &mut Vec<u64>| {
                        acc.push(unit);
                        Ok::<(), std::convert::Infallible>(())
                    },
                    |into, mut from| into.append(&mut from),
                )
                .unwrap()
        };
        let serial = trace(1);
        assert_eq!(serial.len(), 10_000);
        assert!(serial.iter().enumerate().all(|(i, &u)| i as u64 == u));
        for threads in [2, 4, 8] {
            assert_eq!(trace(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_reports_first_error_in_unit_order() {
        for threads in [1, 4] {
            let err = Executor::new(threads)
                .try_map_reduce(
                    100_000,
                    || (),
                    |unit, _| if unit >= 4_321 { Err(unit) } else { Ok(()) },
                    |_, _| {},
                )
                .unwrap_err();
            assert_eq!(err, 4_321, "threads = {threads}");
        }
    }

    #[test]
    fn map_reduce_zero_units_is_init() {
        let acc = Executor::new(4)
            .try_map_reduce(
                0,
                || 7u64,
                |_, _| Ok::<(), std::convert::Infallible>(()),
                |into, from| *into += from,
            )
            .unwrap();
        assert_eq!(acc, 7);
    }

    #[test]
    fn try_map_orders_and_reports_first_error() {
        for len in [0, 1, 4, 17, 500] {
            let items: Vec<u64> = (0..len).collect();
            let serial: Vec<u64> = items.iter().map(|&x| 3 * x).collect();
            for threads in [1, 2, 3, 8] {
                let exec = Executor::new(threads);
                let ok = exec.try_map(&items, |i, &x| Ok::<_, u64>(x + 2 * i as u64));
                assert_eq!(ok, Ok(serial.clone()), "len {len}, threads {threads}");
                // Every third item from the middle on fails: the lowest
                // one wins, and every item before it was evaluated.
                let first_bad = len / 2;
                let evaluated = AtomicU64::new(0);
                let err = exec.try_map(&items, |_, &x| {
                    evaluated.fetch_add(u64::from(x < first_bad), Ordering::Relaxed);
                    if x >= first_bad && (x - first_bad) % 3 == 0 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                });
                if len > 0 {
                    assert_eq!(err, Err(first_bad), "len {len}, threads {threads}");
                    assert_eq!(evaluated.into_inner(), first_bad);
                }
            }
        }
    }

    #[test]
    fn try_map_spreads_a_small_batch_over_the_workers() {
        // Each item raises its own flag, then waits for the other's: on
        // one thread the first item would time out alone.
        let flags = [AtomicBool::new(false), AtomicBool::new(false)];
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        let met = Executor::new(2).try_map(&[0usize, 1], |_, &i| {
            flags[i].store(true, Ordering::Release);
            while !flags[1 - i].load(Ordering::Acquire) {
                if Instant::now() > deadline {
                    return Err(i);
                }
                std::thread::yield_now();
            }
            Ok(i)
        });
        assert_eq!(met, Ok(vec![0, 1]), "the two items never ran at once");
    }

    #[test]
    fn traced_run_matches_untraced_and_counts_chunks() {
        let coin = Coin { p: 0.37 };
        let baseline = Executor::new(1).run(&coin, 50_000, 11).unwrap();
        for threads in [1, 4] {
            let profiler = Profiler::new();
            let outcome = Executor::new(threads)
                .run_traced(&coin, 50_000, 11, &RunOptions::default(), &profiler)
                .unwrap();
            assert_eq!(outcome.acc, baseline, "threads = {threads}");
            let trace = profiler.trace();
            let chunk_span = trace
                .spans
                .iter()
                .find(|s| s.name == "chunk")
                .expect("chunk span recorded");
            // chunk_size(50_000) = 781 → 65 chunks, regardless of threads.
            assert_eq!(chunk_span.count, 65, "threads = {threads}");
        }
    }
}
