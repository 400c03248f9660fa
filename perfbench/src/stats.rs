//! Sample statistics of the benchmark: percentiles that the sample
//! count supports, pooled throughput, the median-of-cold-starts set-up
//! time, `VmHWM` parsing and the failure counter.

/// Samples a percentile must leave beyond itself before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Blocks a run's time-ordered samples are cut into for [`blocked`].
pub const BLOCKS: usize = 5;

/// Cold starts a set-up median needs.
pub const MIN_COLD_STARTS: usize = 5;

/// The median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty sample: every caller records at least one.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `samples`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond the selected rank.
///
/// A failed operation is recorded as `f64::INFINITY`, so it lands
/// beyond every latency limit.
///
/// # Errors
///
/// Names the sample count the quantile would need.
pub fn quantile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    // The epsilon keeps float noise in `q · n` from moving the rank.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        let needed = (MIN_BEYOND as f64 / (1.0 - q) - 1e-9).ceil();
        return Err(format!(
            "p{} needs at least {needed} samples, got {n}",
            (q * 1000.0).round() / 10.0
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

/// Time-ordered samples cut into `n` contiguous blocks of near-equal
/// size (the last takes the remainder).
pub fn blocks(samples: &[f64], n: usize) -> Vec<&[f64]> {
    let size = samples.len() / n.max(1);
    (0..n)
        .map(|b| {
            let end = if b + 1 == n {
                samples.len()
            } else {
                (b + 1) * size
            };
            &samples[b * size..end]
        })
        .collect()
}

/// The median over `blocks` of each block's nearest-rank `q`-quantile,
/// every block held to the ten-beyond rule of [`quantile`]. A burst of
/// host noise confined to one block then cannot carry the run's figure.
///
/// # Errors
///
/// As [`quantile`], for the first block that is too small; also refuses an
/// empty block list.
pub fn blocked(blocks: &[&[f64]], q: f64) -> Result<f64, String> {
    if blocks.is_empty() {
        return Err("no blocks to take a quantile of".into());
    }
    let per_block = blocks
        .iter()
        .map(|b| quantile(b, q))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(median(&per_block))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Work done over time spent, summed across independent segments:
/// the pooled rate is total work over total busy time, not a mean of
/// per-segment rates.
#[derive(Debug, Default, Clone, Copy)]
pub struct Pool {
    work: f64,
    seconds: f64,
}

impl Pool {
    /// Add one segment's work and busy time.
    pub fn add(&mut self, work: f64, seconds: f64) {
        self.work += work;
        self.seconds += seconds;
    }

    /// Work per second over every segment added.
    pub fn rate(&self) -> f64 {
        self.work / self.seconds
    }
}

/// The set-up time of a run: the median of its cold starts.
///
/// # Errors
///
/// Refuses fewer than [`MIN_COLD_STARTS`] cold starts.
pub fn setup_seconds(cold_starts: &[f64]) -> Result<f64, String> {
    if cold_starts.len() < MIN_COLD_STARTS {
        return Err(format!(
            "setup_s needs at least {MIN_COLD_STARTS} cold starts, got {}",
            cold_starts.len()
        ));
    }
    Ok(median(cold_starts))
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in
/// KiB.
pub fn vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes`, continuing from `h` ([`FNV_OFFSET`] to start).
/// The benchmark's output digests: a reference answer or exploration is
/// kept as its hash, never as a copy.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a wrong or non-`ok` answer, a timeout,
    /// or a broken process-hygiene check.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; returns `ok`.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }

    /// Fold in another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_selects_the_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.99), Ok(990.0));
        assert_eq!(quantile(&samples, 0.90), Ok(900.0));
        assert_eq!(quantile(&samples, 0.5), Ok(500.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(quantile(&samples, 0.99).is_ok());
        // 999 samples leave only 9 beyond p99.
        assert!(quantile(&samples[..999], 0.99).is_err());
        assert!(quantile(&samples[..100], 0.90).is_ok());
        let err = quantile(&samples[..99], 0.90).unwrap_err();
        assert!(err.contains("at least 100"), "{err}");
        assert!(quantile(&samples[..10], 0.999).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn failed_operations_land_beyond_every_limit() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.extend([f64::INFINITY; 12]);
        assert_eq!(quantile(&samples, 0.9), Ok(f64::INFINITY));
        assert_eq!(median(&samples), 56.5);
    }

    #[test]
    fn blocks_cover_every_sample_in_order() {
        let samples: Vec<f64> = (0..23).map(f64::from).collect();
        let b = blocks(&samples, 5);
        assert_eq!(
            b.iter().map(|b| b.len()).collect::<Vec<_>>(),
            [4, 4, 4, 4, 7]
        );
        assert_eq!(b.concat(), samples);
    }

    #[test]
    fn blocked_quantile_ignores_one_noisy_block() {
        let calm: Vec<f64> = (1..=100).map(f64::from).collect();
        let noisy: Vec<f64> = calm.iter().map(|x| x * 10.0).collect();
        let run = [&calm[..], &calm[..], &noisy[..], &calm[..], &calm[..]];
        assert_eq!(blocked(&run, 0.9), Ok(90.0));
        assert_eq!(blocked(&run, 0.5), Ok(50.0));
        // Pooled, the noisy block moves the p90 to the noisy range.
        assert_eq!(quantile(&run.concat(), 0.9), Ok(500.0));
        // Each block is held to the ten-beyond rule.
        assert!(blocked(&[&calm[..], &calm[..50]], 0.9).is_err());
        assert!(blocked(&[], 0.5).is_err());
    }

    #[test]
    fn pooled_rate_weights_segments_by_time() {
        let mut pool = Pool::default();
        pool.add(100.0, 1.0);
        pool.add(300.0, 1.0);
        assert_eq!(pool.rate(), 200.0);
        // A short fast segment does not count as much as a long slow one.
        let mut pool = Pool::default();
        pool.add(10.0, 0.01);
        pool.add(100.0, 1.0);
        assert!((pool.rate() - 110.0 / 1.01).abs() < 1e-9);
        assert!(Pool::default().rate().is_nan());
    }

    #[test]
    fn setup_is_the_median_of_enough_cold_starts() {
        assert_eq!(setup_seconds(&[0.5, 0.1, 0.2, 0.9, 0.3]), Ok(0.3));
        assert_eq!(
            setup_seconds(&[0.25, 0.5, 1.0, 0.75, 2.0, 0.125]),
            Ok(0.625)
        );
        assert!(setup_seconds(&[0.1, 0.2, 0.3, 0.4]).is_err());
        assert!(setup_seconds(&[]).is_err());
    }

    #[test]
    fn vmhwm_parses_the_status_line() {
        let status = "Name:\tipassd\nVmPeak:\t  20000 kB\nVmHWM:\t    6420 kB\nVmRSS:\t 6000 kB\n";
        assert_eq!(vmhwm_kib(status), Some(6420));
        assert_eq!(vmhwm_kib("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(vmhwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(vmhwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(vmhwm_kib("VmHWM:\n"), None);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert!(tally.record(true));
        assert!(!tally.record(false));
        assert!(tally.record(true));
        assert_eq!(
            tally,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        let mut total = Tally::default();
        total.add(tally);
        total.add(tally);
        assert_eq!((total.attempted, total.failed), (6, 2));
    }
}
