//! `ipass-sim` — the deterministic Monte Carlo substrate shared by every
//! sampling engine in the workspace.
//!
//! The paper's methodology uses Monte Carlo twice: the MOE cost engine
//! translates yield figures into simulated faults, and the RF layer
//! quantifies the parametric yield of ±10…15 % integrated-passive
//! tolerances. Both engines (and every sweep, sensitivity and trade
//! study above them) run on this crate, which provides:
//!
//! * [`SimRng`] — counter-based per-unit random streams. Output `j` of
//!   stream `i` under seed `s` is a pure hash of `(s, i, j)`; nothing
//!   about scheduling enters the draw.
//! * [`Sampler`] — a Monte Carlo experiment that accumulates one unit
//!   at a time into a mergeable accumulator.
//! * [`BatchSampler`] — the batched form the executor runs: one call
//!   evaluates a whole contiguous unit range, so vectorized lane
//!   kernels can walk many units per op. Every [`Sampler`] is one via a
//!   blanket impl.
//! * [`Executor`] — a chunked multi-thread executor. Workers steal
//!   fixed-size chunks from a shared cursor; completed chunks fold into
//!   a prefix strictly in chunk order, so results are **bit-identical
//!   for any thread count**. Threads are a pure performance knob.
//! * [`Welford`], [`BinomialTally`] — streaming statistics
//!   with deterministic merge.
//! * [`StopRule`] — optional sequential early stopping once a target
//!   confidence-interval half width is reached, evaluated at
//!   deterministic chunk boundaries.
//!
//! Wall-clock observability rides on the same machinery:
//! [`Executor::run_traced`] records one `"chunk"` span per
//! completed chunk into an `ipass_obs::Profiler` without perturbing the
//! deterministic accumulator.
//!
//! # The determinism contract
//!
//! For a fixed `(sampler, units, seed)`, [`Executor::run`] returns the
//! same accumulator — bit for bit, including every floating-point sum —
//! for **any** thread count, because
//!
//! 1. unit `i` always draws from `SimRng::stream(seed, i)`,
//! 2. chunk geometry is a pure function of `units`, and
//! 3. chunk accumulators merge in chunk order.
//!
//! # Examples
//!
//! ```
//! use ipass_sim::{BinomialTally, Executor, Sampler, SimRng, Z95};
//!
//! /// Fraction of manufactured parts falling inside a ±15 % band.
//! struct InBand;
//!
//! impl Sampler for InBand {
//!     type Acc = BinomialTally;
//!     type Error = std::convert::Infallible;
//!     fn make_acc(&self) -> BinomialTally {
//!         BinomialTally::new()
//!     }
//!     fn sample(&self, _u: u64, rng: &mut SimRng, acc: &mut BinomialTally)
//!         -> Result<(), Self::Error>
//!     {
//!         let value = rng.normal(100.0, 7.0);
//!         acc.push((85.0..=115.0).contains(&value));
//!         Ok(())
//!     }
//!     fn merge(&self, into: &mut BinomialTally, from: BinomialTally) {
//!         into.merge(&from);
//!     }
//! }
//!
//! let serial = Executor::new(1).run(&InBand, 40_000, 9).unwrap();
//! let parallel = Executor::new(8).run(&InBand, 40_000, 9).unwrap();
//! assert_eq!(serial, parallel); // the determinism contract
//! assert!(serial.fraction() > 0.95);
//! assert!(serial.wilson_half_width(Z95) < 0.005);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod exec;
mod rng;
mod stats;

pub use batch::BatchSampler;
pub use exec::{Executor, RunOptions, RunOutcome, Sampler, StopRule};
pub use rng::SimRng;
pub use stats::{BinomialTally, Welford, Z95, Z99};
