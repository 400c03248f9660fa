//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no network access, so the workspace ships
//! this local shim implementing the subset of the criterion API the
//! benches use: `criterion_group!`/`criterion_main!`, `Criterion`,
//! `BenchmarkGroup`, `Bencher::iter`, `BenchmarkId` and `Throughput`.
//!
//! Each benchmark reports min/mean ns per iteration on stdout. When the
//! `BENCH_JSON` environment variable names a file, all results of the
//! run are additionally written there as a JSON array — that is how the
//! committed `BENCH_*.json` baselines are produced.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One recorded benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id (`group/param` or the function name).
    pub id: String,
    /// Mean nanoseconds per iteration over the measured samples.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest sample, nanoseconds per iteration.
    pub max_ns: f64,
    /// Samples taken.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Declared throughput elements per iteration, if any.
    pub elements: Option<u64>,
    /// Worker threads the benchmark case used, when declared via
    /// [`BenchmarkGroup::threads`] (baselines self-describe their
    /// scaling trajectory).
    pub threads: Option<usize>,
    /// Kernel lane width the benchmark case used, when declared via
    /// [`BenchmarkGroup::lane_width`] (batched-kernel baselines
    /// self-describe the width they measured).
    pub lane_width: Option<usize>,
    /// RNG draws per throughput element, when the case declared a probe
    /// snapshot via [`BenchmarkGroup::draws_per_elem`] — the workload's
    /// exact per-element randomness cost, independent of timing noise.
    pub draws_per_elem: Option<f64>,
    /// Median per-element latency in nanoseconds, when the case
    /// measured one itself via [`BenchmarkGroup::latency_ns`] (load
    /// harnesses time individual requests; the harness's own samples
    /// only see whole iterations).
    pub p50_ns: Option<f64>,
    /// 99th-percentile per-element latency in nanoseconds, when the
    /// case declared one via [`BenchmarkGroup::latency_ns`].
    pub p99_ns: Option<f64>,
}

impl BenchResult {
    /// Elements per second, when a throughput was declared.
    pub fn elements_per_sec(&self) -> Option<f64> {
        self.elements.map(|e| e as f64 / (self.mean_ns * 1e-9))
    }

    /// Mean nanoseconds per element, when a throughput was declared.
    pub fn ns_per_element(&self) -> Option<f64> {
        self.elements
            .filter(|&e| e > 0)
            .map(|e| self.mean_ns / e as f64)
    }
}

/// The benchmark driver (a small timing harness).
///
/// When the `BENCH_FILTER` environment variable is set, only
/// benchmarks whose id contains the filter substring are run — that is
/// how CI smoke steps run a single case without paying for the whole
/// suite.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            filter: std::env::var("BENCH_FILTER").ok().filter(|f| !f.is_empty()),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Set the number of measured samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(2);
        self
    }

    /// Set the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up = d;
        self
    }

    /// Set the target measurement duration.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement = d;
        self
    }

    /// Benchmark a single function.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        self.run_one(id.to_string(), CaseMeta::default(), |b| f(b));
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            meta: CaseMeta::default(),
        }
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    fn run_one<F>(&mut self, id: String, meta: CaseMeta, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        // Warm-up + per-iteration estimate.
        let mut bench = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        let warm_start = Instant::now();
        let mut per_iter = Duration::from_nanos(1);
        while warm_start.elapsed() < self.warm_up {
            f(&mut bench);
            per_iter = bench.elapsed.max(Duration::from_nanos(1));
        }
        // Choose an iteration count so all samples fit the measurement
        // window.
        let budget = self.measurement.as_nanos() / self.sample_size.max(1) as u128;
        let iters = (budget / per_iter.as_nanos().max(1)).clamp(1, u128::from(u64::MAX)) as u64;
        let mut samples_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut bench = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut bench);
            samples_ns.push(bench.elapsed.as_nanos() as f64 / iters as f64);
        }
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let min = samples_ns.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples_ns.iter().cloned().fold(0.0_f64, f64::max);
        let result = BenchResult {
            id,
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
            samples: samples_ns.len(),
            iters_per_sample: iters,
            elements: meta.elements,
            threads: meta.threads,
            lane_width: meta.lane_width,
            draws_per_elem: meta.draws_per_elem,
            p50_ns: meta.p50_ns,
            p99_ns: meta.p99_ns,
        };
        let throughput = result
            .elements_per_sec()
            .map(|eps| format!("  ({eps:.0} elem/s)"))
            .unwrap_or_default();
        println!(
            "bench {:<44} {:>12.0} ns/iter (min {:.0}, max {:.0}){}",
            result.id, result.mean_ns, result.min_ns, result.max_ns, throughput
        );
        self.results.push(result);
    }
}

/// Per-case metadata recorded alongside the timings (declared on the
/// group, copied into each result).
#[derive(Debug, Clone, Copy, Default)]
struct CaseMeta {
    elements: Option<u64>,
    threads: Option<usize>,
    lane_width: Option<usize>,
    draws_per_elem: Option<f64>,
    p50_ns: Option<f64>,
    p99_ns: Option<f64>,
}

/// A group of related benchmarks sharing a name and throughput.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    meta: CaseMeta,
}

impl BenchmarkGroup<'_> {
    /// Declare the work performed per iteration.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.meta.elements = Some(match t {
            Throughput::Elements(n) | Throughput::Bytes(n) => n,
        });
        self
    }

    /// Declare the worker-thread count the next cases run on
    /// (recorded in the result and used for the scaling report —
    /// an extension over the real criterion API).
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.meta.threads = Some(threads);
        self
    }

    /// Declare the kernel lane width the next cases run on (recorded in
    /// the result so batch-kernel baselines self-describe — an
    /// extension over the real criterion API).
    pub fn lane_width(&mut self, width: usize) -> &mut Self {
        self.meta.lane_width = Some(width);
        self
    }

    /// Attach a probe-measured RNG draw count per throughput element to
    /// the group's subsequent cases (deterministic workload metadata —
    /// baselines self-describe their randomness cost).
    pub fn draws_per_elem(&mut self, draws: f64) -> &mut Self {
        self.meta.draws_per_elem = Some(draws);
        self
    }

    /// Attach self-measured per-element latency percentiles (p50/p99,
    /// nanoseconds) to the group's subsequent cases. Load harnesses
    /// time each request individually and summarize here; the timing
    /// harness itself only sees whole iterations, so it cannot compute
    /// these (an extension over the real criterion API).
    pub fn latency_ns(&mut self, p50: f64, p99: f64) -> &mut Self {
        self.meta.p50_ns = Some(p50);
        self.meta.p99_ns = Some(p99);
        self
    }

    /// Benchmark one parameterized case.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.0);
        let meta = self.meta;
        self.criterion.run_one(full, meta, |b| f(b, input));
        self
    }

    /// Benchmark an unparameterized case inside the group.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let meta = self.meta;
        self.criterion.run_one(full, meta, |b| f(b));
        self
    }

    /// Close the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// The measurement callback handle passed to benchmark closures.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` over this sample's iteration budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Identifier for one parameterized benchmark case.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `name/parameter` id.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// Id from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId(parameter.to_string())
    }
}

/// Declared per-iteration workload, for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// The current git revision (short hash, `-dirty` suffixed when the
/// tree has uncommitted changes), or `"unknown"` outside a checkout —
/// committed baselines self-describe which code produced them.
pub fn git_revision() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = run(&["rev-parse", "--short", "HEAD"]).filter(|r| !r.is_empty()) else {
        return "unknown".to_string();
    };
    match run(&["status", "--porcelain"]) {
        Some(status) if !status.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// Worker threads the host actually offers (1 when undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Print speedup-vs-1-thread for every group with thread-annotated
/// cases, so scaling regressions are visible straight from the bench
/// log. Called by [`finalize`].
///
/// A sweep that requests more threads than the host has cores is an
/// oversubscription measurement, not a scaling story — on a 1-core CI
/// runner an 8-thread case measuring 2.9 ms against a 2.6 ms 1-thread
/// base would read as a regression. Such groups are annotated and
/// their ratios skipped.
pub fn report_thread_scaling(results: &[BenchResult]) {
    report_thread_scaling_on(results, available_cores());
}

/// [`report_thread_scaling`] with an explicit core count (testable).
pub fn report_thread_scaling_on(results: &[BenchResult], cores: usize) {
    let mut groups: Vec<&str> = Vec::new();
    for r in results.iter().filter(|r| r.threads.is_some()) {
        if let Some((group, _)) = r.id.rsplit_once('/') {
            if !groups.contains(&group) {
                groups.push(group);
            }
        }
    }
    for group in groups {
        let cases: Vec<&BenchResult> = results
            .iter()
            .filter(|r| {
                r.threads.is_some()
                    && r.id.starts_with(group)
                    && r.id[group.len()..].starts_with('/')
            })
            .collect();
        // Only a *sweep* over thread counts is a scaling story; a group
        // whose cases all ran on the same thread count varies something
        // else (unit count, rework depth, …).
        if !cases.iter().any(|r| r.threads != cases[0].threads) {
            continue;
        }
        let Some(base) = cases.iter().find(|r| r.threads == Some(1)) else {
            continue;
        };
        // Only cases that fit the host's cores are a scaling signal;
        // oversubscribed cases are annotated per case, not printed as
        // ratios — and a host with fewer cores than every swept count
        // (1-core CI) gets the annotation alone.
        let (valid, over): (Vec<&&BenchResult>, Vec<&&BenchResult>) =
            cases.iter().partition(|r| r.threads.unwrap_or(1) <= cores);
        let note = if over.is_empty() {
            String::new()
        } else {
            let omitted = over
                .iter()
                .map(|r| format!("{}t", r.threads.unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("/");
            format!(
                " ({omitted} omitted — only {cores} core(s) available; \
                 oversubscribed timings are not a scaling signal)"
            )
        };
        if valid.len() < 2 {
            println!("speedup vs 1 thread [{group}]: skipped{note}");
            continue;
        }
        let line = valid
            .iter()
            .map(|r| {
                format!(
                    "{}t {:.2}x",
                    r.threads.unwrap_or(0),
                    base.mean_ns / r.mean_ns
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!("speedup vs 1 thread [{group}]: {line}{note}");
    }
}

/// The banner printed when a baseline is recorded from a dirty working
/// tree, or `None` for a clean (or unknown) revision. A `-dirty`
/// baseline cannot be reproduced from any commit, so a recording run
/// should never silently accept one.
pub fn dirty_rev_warning(git_rev: &str) -> Option<String> {
    if !git_rev.ends_with("-dirty") {
        return None;
    }
    Some(format!(
        "\n\
         !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n\
         !!  WARNING: recording benchmark baseline from a DIRTY tree        !!\n\
         !!  git_rev = {git_rev:<55} !!\n\
         !!  No commit reproduces these numbers. Commit (or stash) your     !!\n\
         !!  changes and rerun before updating a committed BENCH_*.json.    !!\n\
         !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!"
    ))
}

/// Write recorded results as JSON to the `BENCH_JSON` path, if set,
/// and print the thread-scaling report.
/// Called by [`criterion_main!`]; harmless to call directly.
pub fn finalize(results: &[BenchResult]) {
    report_thread_scaling(results);
    let Ok(path) = std::env::var("BENCH_JSON") else {
        return;
    };
    let git_rev = git_revision();
    if let Some(warning) = dirty_rev_warning(&git_rev) {
        eprintln!("{warning}");
    }
    let nproc = available_cores();
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \
             \"samples\": {}, \"iters_per_sample\": {}, \"elements\": {}, \"ns_per_elem\": {}, \
             \"threads\": {}, \"lane_width\": {}, \"draws_per_elem\": {}, \
             \"p50_ns\": {}, \"p99_ns\": {}, \"nproc\": {nproc}, \"git_rev\": \"{git_rev}\"}}{}\n",
            r.id.replace('"', "'"),
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.samples,
            r.iters_per_sample,
            r.elements.map_or("null".to_string(), |e| e.to_string()),
            r.ns_per_element()
                .map_or("null".to_string(), |n| format!("{n:.2}")),
            r.threads.map_or("null".to_string(), |t| t.to_string()),
            r.lane_width.map_or("null".to_string(), |w| w.to_string()),
            r.draws_per_elem
                .map_or("null".to_string(), |d| format!("{d:.4}")),
            r.p50_ns.map_or("null".to_string(), |p| format!("{p:.1}")),
            r.p99_ns.map_or("null".to_string(), |p| format!("{p:.1}")),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("warning: could not write BENCH_JSON={path}: {e}");
    } else {
        println!("wrote benchmark baseline to {path}");
    }
}

/// Define a benchmark group function, criterion style.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() -> $crate::Criterion {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
            criterion
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define the benchmark binary's `main`, criterion style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut all: Vec<$crate::BenchResult> = Vec::new();
            $(all.extend($group().results().iter().cloned());)+
            $crate::finalize(&all);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(c: &mut Criterion) {
        c.bench_function("spin", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let mut group = c.benchmark_group("grouped");
        group.throughput(Throughput::Elements(100));
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u64, |b, &n| {
            b.iter(|| (0..n).product::<u64>())
        });
        group.finish();
    }

    #[test]
    fn harness_records_results() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(30));
        spin(&mut c);
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].id, "spin");
        assert_eq!(c.results()[1].id, "grouped/4");
        assert!(c.results()[0].mean_ns > 0.0);
        assert!(c.results()[1].elements_per_sec().unwrap() > 0.0);
        assert!(c.results()[0].min_ns <= c.results()[0].mean_ns);
        assert!(c.results()[1].ns_per_element().unwrap() > 0.0);
        assert_eq!(c.results()[0].ns_per_element(), None);
    }

    #[test]
    fn threads_are_recorded_per_case() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(2))
            .measurement_time(Duration::from_millis(10));
        let mut group = c.benchmark_group("scaling");
        for t in [1usize, 2] {
            group.threads(t);
            group.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &n| {
                b.iter(|| (0..n as u64).sum::<u64>())
            });
        }
        group.finish();
        assert_eq!(c.results()[0].threads, Some(1));
        assert_eq!(c.results()[1].threads, Some(2));
        // The scaling report covers exactly this shape; it must not
        // panic and needs a 1-thread base to report against. On a
        // 1-core host the 2-thread case oversubscribes and the ratio
        // line is replaced by the skip annotation; with enough cores
        // the ratios print — neither branch may panic.
        report_thread_scaling_on(c.results(), 1);
        report_thread_scaling_on(c.results(), 8);
        report_thread_scaling(c.results());
    }

    #[test]
    fn available_cores_is_at_least_one() {
        assert!(available_cores() >= 1);
    }

    #[test]
    fn filter_skips_non_matching_cases() {
        let mut c = Criterion {
            filter: Some("grouped".to_string()),
            ..Criterion::default()
        }
        .sample_size(2)
        .warm_up_time(Duration::from_millis(2))
        .measurement_time(Duration::from_millis(10));
        spin(&mut c);
        assert_eq!(c.results().len(), 1);
        assert_eq!(c.results()[0].id, "grouped/4");
    }

    #[test]
    fn git_revision_is_nonempty() {
        assert!(!git_revision().is_empty());
    }

    #[test]
    fn lane_width_is_recorded_per_case() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(2))
            .measurement_time(Duration::from_millis(10));
        let mut group = c.benchmark_group("widths");
        for w in [1usize, 8] {
            group.lane_width(w);
            group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &n| {
                b.iter(|| (0..n as u64).sum::<u64>())
            });
        }
        group.finish();
        assert_eq!(c.results()[0].lane_width, Some(1));
        assert_eq!(c.results()[1].lane_width, Some(8));
    }

    #[test]
    fn dirty_revision_triggers_a_loud_warning() {
        assert_eq!(dirty_rev_warning("1fe6338"), None);
        assert_eq!(dirty_rev_warning("unknown"), None);
        let banner = dirty_rev_warning("1fe6338-dirty").expect("dirty rev warns");
        assert!(banner.contains("WARNING"));
        assert!(banner.contains("1fe6338-dirty"));
        assert!(banner.contains("DIRTY"));
    }
}
